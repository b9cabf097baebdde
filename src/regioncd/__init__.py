"""Region-guided contrastive decoding over a miniature vision-language decoder."""

__version__ = "0.1.0"
