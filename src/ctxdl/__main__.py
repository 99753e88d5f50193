"""Entry point of ``python -m ctxdl``; the commands live in `ctxdl.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
