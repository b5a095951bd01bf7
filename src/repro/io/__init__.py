"""Persistence: run histories (JSON/CSV) and model checkpoints (npz)."""

from repro.io.history_io import (
    export_curves_csv,
    history_from_dict,
    history_to_dict,
    load_history,
    save_history,
)

__all__ = [
    "history_to_dict",
    "history_from_dict",
    "save_history",
    "load_history",
    "export_curves_csv",
]
