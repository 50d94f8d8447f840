"""Cheetah coefficient encoding for convolution and fully-connected layers."""

from repro.encoding.conv_encoding import (
    Conv2dEncoder,
    ConvShape,
    decompose_strided,
    iter_conv_bands,
    iter_row_bands,
    iter_weight_polynomials,
    pad_input,
)
from repro.encoding.linear_encoding import (
    LinearEncoder,
    LinearShape,
    matvec_via_polynomials,
)
from repro.encoding.plain_eval import conv2d_direct, conv2d_via_polynomials

__all__ = [
    "Conv2dEncoder",
    "ConvShape",
    "LinearEncoder",
    "LinearShape",
    "conv2d_direct",
    "conv2d_via_polynomials",
    "decompose_strided",
    "iter_conv_bands",
    "iter_row_bands",
    "iter_weight_polynomials",
    "matvec_via_polynomials",
    "pad_input",
]
