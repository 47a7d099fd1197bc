//! GPU backend for `futhark-rs`: kernel IR, code generation from the
//! flattened core IR, and a SIMT virtual GPU with a coalescing-aware cost
//! model (the evaluation substrate standing in for the paper's physical
//! GTX 780 Ti and FirePro W8100).

pub mod codegen;
pub mod device;
pub mod exec;
pub mod kernel;
pub mod memplan;
pub mod plan;
pub mod sim;
pub mod tape;

pub use device::DeviceProfile;
pub use exec::RunOptions;
pub use memplan::{plan_memory, predict_peak_bytes, PeakPrediction};
pub use sim::{
    kernel_time_breakdown, kernel_time_us, Arg, BufId, DeviceMemory, KernelStats, Limiter,
    MemEvent, MemOp, MemStats, SimError, SiteStats, TimeBreakdown,
};
pub use tape::{launch_decoded, DecodedKernel, LaunchOut, SimEngine};
