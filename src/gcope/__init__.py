"""Cross-domain graph pretraining with coordinator virtual nodes."""

__version__ = "0.1.0"
