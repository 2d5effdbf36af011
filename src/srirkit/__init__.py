"""srirkit: spatial room impulse response analysis, parametric binaural
resynthesis, and objective evaluation against an image-source oracle.
"""

from .arrays import MicArrayGeometry, builtin_array
from .doa import (
    DoaTrajectory,
    TfDoaField,
    piv_broadband_doa,
    tdoa_ls_doa,
    tf_piv_analysis,
)
from .dsp import (
    cross_correlate,
    detect_onset,
    istft,
    normalize_direct_energy,
    stft,
)
from .filterbanks import ERB_CENTERS_HZ, bandpass_sos, erb_bands, octave_band
from .grids import LoudspeakerGrid, fibonacci_grid, load_grid_csv
from .hrir import HrirSet, load_hrir_set, spherical_head_hrir_set
from .ism import (
    ImageSourceList,
    Scene,
    ShoeboxRoom,
    enumerate_images,
    render_array_srir,
    render_foa_srir,
    render_reference_brir,
)
from .metrics import (
    ErrorSummary,
    MetricReport,
    error_summary_paired,
    iacc,
    iacc_e3_l3,
    ild_avg,
    itd,
    measure_brir,
    t30_mid,
)
from .pipelines import (
    AnalysisInput,
    ComparisonResult,
    ComparisonRun,
    ConditionResult,
    SceneRendering,
    SystemCondition,
    run_comparison,
    run_condition,
    simulate,
)
from .signals import BinauralIr, FoaSignal, MonoIr, MultichannelIr, StftFrames
from .sweep import deconvolve_ess, generate_ess
from .synthesis import (
    SampleAssignment,
    VirtualLoudspeakerSignals,
    binaural_render,
    sdm_synthesize,
    sirr_synthesize,
    sirr_tf_streams,
)
from .vbap import vbap_gain_table

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
