"""Cold-cache repair campaigns and golden verification soaks, measured end to end and per layer."""
