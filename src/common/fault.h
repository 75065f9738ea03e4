#ifndef SQPR_COMMON_FAULT_H_
#define SQPR_COMMON_FAULT_H_

namespace sqpr {
namespace fault {

/// Deterministic crash injection for the durability tests
/// (docs/ARCHITECTURE.md "Durability & degraded modes").
///
/// Armed via the environment:
///
///   SQPR_FAULT=<point>:<n>
///
/// kills the process — std::_Exit(kCrashExitCode), no destructors, no
/// atexit, exactly like a SIGKILL as far as the filesystem is concerned
/// — on the n-th (1-based) execution of crash point `<point>`. The
/// counter is a plain per-point hit count on the calling process, so a
/// given trace + fault spec crashes at the same logical instant on
/// every run: that determinism is what lets CI compare a
/// crash-restore-finish replay byte-for-byte against an uninterrupted
/// one.
///
/// Crash points wired in:
///   event            after each consumed service event
///                    (tools/sqpr_service.cc event loop)
///   mid-round        after a re-planning round is popped and its
///                    catalog closures warmed, before its commit point
///                    (PlanningService::DispatchReplanRound)
///   checkpoint-write mid-write of a checkpoint temp file, before the
///                    atomic rename (WriteFileAtomic) — the torn-write
///                    case the rename protocol must survive
///
/// Unset (the default, and always in unit tests), every hook is a
/// no-op after one cached getenv.

/// Exit code of an injected crash; distinguishes "the harness fired"
/// from real failures in CI scripts.
constexpr int kCrashExitCode = 43;

/// True when SQPR_FAULT names `point` (regardless of the count) —
/// lets call sites pay for crash-window setup only when armed.
bool Armed(const char* point);

/// Counts one hit of `point`; kills the process if this is the
/// configured n-th hit of the armed point.
void MaybeCrash(const char* point);

}  // namespace fault
}  // namespace sqpr

#endif  // SQPR_COMMON_FAULT_H_
