"""End-to-end benchmark of the SGPRS simulator (see README.md)."""
