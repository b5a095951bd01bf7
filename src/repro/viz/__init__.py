"""Terminal rendering: plain-text tables and the comm-ledger and sweep-grid views."""
