import gc
import sys

from .cli import main


def run() -> int:
    """Process entry of ``python -m conclose`` and the console script.

    Every object alive here lives until exit, so it is frozen out of the
    collector; that spares the collector walking it again, at exit and
    in any full collection. cli.main itself leaves the collector alone,
    since it also runs inside other processes.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
