"""Forward error correction: QC-LDPC codes (fec.ldpc) and the bit scrambler (fec.scramble)."""
