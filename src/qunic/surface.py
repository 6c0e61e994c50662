"""The name under which a whole file used to print.

Definitions and files are nodes of the one syntax tree in :mod:`qunic.core`
and print with its one printer, :func:`qunic.printer.to_str`.  The benchmark
still prints a file by calling ``surface.file_to_str``, so this alias stays;
importing it loads the printer, which importing the compiler does not.
"""

from .printer import to_str as file_to_str  # noqa: F401
