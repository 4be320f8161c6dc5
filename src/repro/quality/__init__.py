"""NFIQ-style image quality assessment (substitute for NIST NFIQ)."""
