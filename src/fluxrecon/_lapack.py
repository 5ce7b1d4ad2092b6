"""LAPACK's dpttrf and dpttrs, loaded from SciPy's compiled `_flapack`.

Importing `scipy.linalg` runs a package init that loads some 300 modules
(`numpy.f2py`, `numpy.testing`, `numpy.ma`) the package never calls. The
extension needs only numpy and the top-level `scipy` (whose init sets up
the bundled BLAS on some platforms), so it is loaded here on its own and
registered as `scipy.linalg._flapack`, which `scipy.linalg` shares when
it is imported later; if `scipy.linalg` came first, its module is reused.
"""

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import scipy

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    dirs = [f"{root}/linalg" for root in scipy.__path__]
    for path in dirs:
        spec = FileFinder(path, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_NAME)
        if spec is not None:
            module = sys.modules[_NAME] = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no compiled _flapack extension in {', '.join(dirs)}", name=_NAME)


_flapack = _load_flapack()
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs
