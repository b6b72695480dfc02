"""Lane-detection post-processing toolkit.

Takes a binary lane-marking mask (the output of a segmentation network,
which is not part of this package), detects marking instances, maps them
into a bird's-eye view, groups them into lane dividers by pairwise voting,
and fits each divider with a quadratic curve projected back into the
image. Also ships the segmentation loss/accuracy numerics and the
shape/receptive-field arithmetic used to size such a network.
"""

from .bench import BenchReport, benchmark, format_report
from .config import (
    PipelineConfig,
    default_config,
    format_config,
    load_config,
    parse_config,
    save_config,
)
from .curves import LaneCurve, back_project, fit_curve, fit_curves, project_curves, sample_curve
from .errors import (
    CalibrationError,
    ConfigError,
    DegenerateGeometryError,
    FileFormatError,
    ImageIOError,
    LanepostError,
    ProcessingError,
    ProjectionError,
)
from .homography import Homography, QuadCorrespondence, estimate_homography, transform_instance
from .instances import Instance, InstanceSegments, label_instances, label_segments
from .losses import (
    LossParams,
    grid_mean,
    penalized_dice_loss,
    penalized_dice_loss_gradient,
    penalized_ground_truth,
    pixel_accuracy,
)
from .maskio import load_mask, read_gray, write_pgm, write_ppm
from .netshape import LayerSpec, TensorShape, propagate_shapes, receptive_field
from .pipeline import (
    FrameResult,
    Lane,
    StageTimings,
    crop_and_resize,
    format_lanes,
    parse_lanes,
    read_lanes,
    run_frame,
    write_lanes,
)
from .render import render_overlay
from .synthetic import (
    EvalMetrics,
    SceneParams,
    SyntheticScene,
    best_lateral_errors,
    evaluate,
    generate_scene,
    match_dividers,
    match_lanes,
    read_truth_curves,
    write_truth_curves,
)
from .voting import BevInstance, Clustering, cluster_instances, cluster_segments, vote

__version__ = "0.1.0"
