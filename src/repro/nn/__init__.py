"""A small, self-contained neural-network library built on numpy.

This package is the substrate that replaces PyTorch in the reproduction of
"Fabricated Flips: Poisoning Federated Learning without Data" (DSN 2023),
and it carries only what the reproduction runs: reverse-mode autograd
(:mod:`repro.nn.tensor`), the convolution and loss primitives
(:mod:`repro.nn.functional`), the ``Linear``/``Conv2d``/``ConvTranspose2d``
layers (:mod:`repro.nn.modules`) and a GRU (:mod:`repro.nn.recurrent`),
the SGD and Adam optimizers (:mod:`repro.nn.optim`), parameter flattening
(:mod:`repro.nn.serialization`) and trace-recorded replay of training
steps (:mod:`repro.nn.trace`).  ``__all__`` names what code outside the
package uses; helpers such as :mod:`repro.nn.init` stay in their modules.
"""

from . import functional
from .modules import Conv2d, ConvTranspose2d, Linear, Module
from .optim import SGD, Adam
from .recurrent import GRU
from .serialization import FlatParams, get_flat_params, set_flat_params, vector_to_state_dict
from .tensor import Tensor, no_grad

__all__ = [
    "functional",
    "Tensor",
    "no_grad",
    "Module",
    "Linear",
    "Conv2d",
    "ConvTranspose2d",
    "SGD",
    "Adam",
    "GRU",
    "FlatParams",
    "get_flat_params",
    "set_flat_params",
    "vector_to_state_dict",
]
