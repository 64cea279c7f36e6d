//! Fault injection: the thirteen fault types of §3.1 and the crash
//! campaign behind Table 1.
//!
//! The taxonomy, trigger cadences, and the copy-overrun length distribution
//! follow the paper:
//!
//! * **Bit flips** in kernel text, heap, and stack — electrical corruption
//!   of DRAM cells (\[Barton90\], \[Kanawati95\]).
//! * **Low-level software faults** — corrupt the destination or source
//!   register of an instruction, delete a branch, delete a random
//!   instruction (\[Kao93\]).
//! * **High-level software faults** — skipped initialization, corrupted
//!   pointer formation, premature `malloc` free, `bcopy` overrun (50% one
//!   byte / 44% 2–1024 B / 6% 2–4 KB), off-by-one comparisons, and lock
//!   acquire/release that silently do nothing (\[Sullivan91b\], \[Lee93\]).
//!
//! [`inject()`](inject::inject) plants one fault type into a live kernel (20 instances per
//! run, as in the paper); [`driver`] is the protocol — the one statement
//! of §3.2's run → reboot → examine, which every crash trial in the
//! workspace goes through, one memTest client or sixty-four; [`engine`] is
//! the one worker pool every campaign runs on, and [`campaign`] /
//! [`scale_campaign`] / [`recovery`] describe their grids to it —
//! `campaign` and `scale_campaign` into one [`CellResult`] /
//! [`CampaignResult`].

#![forbid(unsafe_code)]

pub mod campaign;
pub mod driver;
pub mod engine;
pub mod inject;
pub mod recovery;
pub mod scale_campaign;

pub use campaign::{run_campaign, CampaignConfig, CampaignResult, CellResult, SystemKind};
pub use driver::{
    drive, drive_attributed, examine, examine_crash, reboot, run_to_crash, static_damage,
    workload_seed, Examination, PreparedTrial, Provenance, Rebooted, TrialObservation,
    TrialVerdict,
};
pub use engine::{map_grid, Campaign};
pub use inject::{decay_image, inject, FaultType};
pub use recovery::{
    recovery_trial_seed, recovery_workload_seed, run_recovery_campaign, run_recovery_trial_from,
    RecoveryCampaignConfig, RecoveryCampaignResult, RecoveryCellResult, RecoveryCheckpoint,
    RecoveryScenario, RecoveryTrialOutcome,
};
pub use scale_campaign::{
    run_scale_campaign, scale_checkpoint, scale_kernel_config, scale_trial_seed,
    scale_workload_seed, ScaleCampaignConfig,
};
