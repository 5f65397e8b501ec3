"""``python -m qpolykit``: the same commands as the ``qpolykit`` script.

Importing this module runs nothing: tools that import every module of the
package (the benchmark's tracer among them) load it too.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
