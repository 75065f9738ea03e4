#ifndef SQPR_MILP_MPS_IO_H_
#define SQPR_MILP_MPS_IO_H_

#include <string>

#include "common/status.h"
#include "milp/solver.h"

namespace sqpr {
namespace milp {

/// MPS and CPLEX-LP model exchange.
///
/// SQPR's per-query models are built in memory, but a solver substrate is
/// only debuggable when its inputs can be captured and replayed in
/// isolation. These functions implement free-format MPS (the lingua
/// franca CPLEX itself speaks) with the common extensions:
///
///  * `OBJSENSE` section with `MAX`/`MIN` (default: minimise, per spec);
///  * `MARKER` lines with `'INTORG'`/`'INTEND'` delimiting integer
///    columns;
///  * `RANGES` turning a one-sided row into an interval row;
///  * `BOUNDS` types UP, LO, FX, FR, MI, PL, BV, UI, LI;
///  * `* PRIORITY <column> <n>` lines carrying Model::branch_priority.
///    MPS has no section for it (CPLEX keeps priorities in a separate
///    .ord file); as comment lines they are skipped by other readers,
///    and a replayed model runs the same search as the original.
///
/// The LP-format writer produces human-readable `Maximize/Subject To/
/// Bounds/Generals` text for eyeballing small reduced models; it is
/// write-only.

/// Parses an MPS model from a string. Unknown sections or malformed
/// fields produce an error with the offending line number.
Result<Model> ReadMpsFromString(const std::string& text);

/// Reads an MPS file from disk.
Result<Model> ReadMpsFile(const std::string& path);

/// Serialises a model to free-format MPS. Variables and rows without
/// names are given synthetic ones (`x12`, `r7`) — names survive a
/// round-trip when present.
std::string WriteMpsToString(const Model& model);

Status WriteMpsFile(const Model& model, const std::string& path);

/// Serialises to CPLEX LP format (write-only, for inspection).
std::string WriteLpToString(const Model& model);

Status WriteLpFile(const Model& model, const std::string& path);

}  // namespace milp
}  // namespace sqpr

#endif  // SQPR_MILP_MPS_IO_H_
