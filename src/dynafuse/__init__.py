"""Two-stream action video pipeline: key frames, dynamic images, fusion."""

from .tensorio import (
    FeatureSequence,
    VideoSequence,
    read_frame,
    read_tensor,
    write_frame,
    write_tensor,
)
from .imgproc import SsimParams, SsimResult, StructuringElement, ssim
from .keyframe import KeyframeSelection, SsiiVector, select_keyframes, ssii_vector
from .rankpool import (
    ArpCoefficients,
    DynamicImage,
    RankVector,
    arp_coefficients,
    dynamic_feature,
    dynamic_image,
    exact_rank_pool,
    time_average,
)
from .learn import AdamConfig, LinearModel, gradient_check, predict, softmax, train
from .fusion_eval import FusionMode, SplitProtocol, evaluate, fuse, make_splits, roc_auc
from .synthgen import SynthConfig, generate

__version__ = "0.1.0"
