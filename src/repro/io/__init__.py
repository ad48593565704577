"""Filesystem helpers: workspace paths and atomic JSONL logs."""

from .jsonl import append_jsonl, dumps_line, read_jsonl
from .paths import Workspace, ensure_dir

__all__ = [
    "Workspace",
    "ensure_dir",
    "append_jsonl",
    "dumps_line",
    "read_jsonl",
]
