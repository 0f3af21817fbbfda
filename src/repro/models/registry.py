"""Model registry: the paper's nine evaluation DNNs by name.

Section 6.1 lists "nine DNNs" and enumerates Lenet, Alexnet, Vgg11, Vgg13,
Vgg19 and Resnet18/34/50; the ninth (present in the figures) is Vgg16, which
we include.  Models are built lazily so importing the registry is cheap.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..graph import Network
from .alexnet import alexnet
from .lenet import lenet
from .multibranch import trident
from .resnet import resnet18, resnet34, resnet50, resnet101, resnet152
from .vgg import vgg11, vgg13, vgg16, vgg19

_BUILDERS: Dict[str, Callable[[], Network]] = {
    "lenet": lenet,
    "alexnet": alexnet,
    "vgg11": vgg11,
    "vgg13": vgg13,
    "vgg16": vgg16,
    "vgg19": vgg19,
    "resnet18": resnet18,
    "resnet34": resnet34,
    "resnet50": resnet50,
    # beyond the paper's nine (extensions; not in PAPER_MODELS)
    "resnet101": resnet101,
    "resnet152": resnet152,
    "trident": trident,
}

#: evaluation order used in the paper's figures (the first nine)
PAPER_MODELS: List[str] = [
    "lenet", "alexnet", "vgg11", "vgg13", "vgg16", "vgg19",
    "resnet18", "resnet34", "resnet50",
]

#: subsets referenced in the text
VGG_MODELS = ["vgg11", "vgg13", "vgg16", "vgg19"]
RESNET_MODELS = ["resnet18", "resnet34", "resnet50"]


#: network name -> registry key, so a stored plan, which names its network
#: (``trident`` builds ``trident2``), loads back; filled on first need
_BY_NETWORK_NAME: Dict[str, str] = {}


def available_models() -> List[str]:
    return list(_BUILDERS)


def build_model(name: str) -> Network:
    """Construct a fresh network by registry name or by the name of the
    network a registered builder produces (both case-insensitive)."""
    key = name.lower()
    if key not in _BUILDERS:
        if not _BY_NETWORK_NAME:
            names: Dict[str, str] = {}
            for registered, builder in _BUILDERS.items():
                names.setdefault(builder().name.lower(), registered)
            _BY_NETWORK_NAME.update(names)  # one call: readers see all or none
        key = _BY_NETWORK_NAME.get(key, key)
    if key not in _BUILDERS:
        raise KeyError(f"unknown model {name!r}; available: {available_models()}")
    return _BUILDERS[key]()


def register_model(name: str, builder: Callable[[], Network],
                   overwrite: bool = False) -> None:
    """Add a user model to the registry (used by the examples)."""
    key = name.lower()
    if key in _BUILDERS and not overwrite:
        raise KeyError(f"model {name!r} already registered")
    _BUILDERS[key] = builder
    _BY_NETWORK_NAME.clear()
