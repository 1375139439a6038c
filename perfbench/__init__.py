"""End-to-end benchmark of the OpenBox packet and deploy paths."""
