#include "milp/mps_io.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

namespace sqpr {
namespace milp {
namespace {

enum class Section {
  kNone,
  kObjsense,
  kRows,
  kColumns,
  kRhs,
  kRanges,
  kBounds,
  kEnd,
};

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

Status ParseError(int line_no, const std::string& what) {
  return Status::InvalidArgument("MPS line " + std::to_string(line_no) +
                                 ": " + what);
}

Result<double> ParseNumber(const std::string& tok, int line_no) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') {
    return ParseError(line_no, "bad number '" + tok + "'");
  }
  return v;
}

/// Per-row accumulation while parsing; converted to Model rows at the
/// end so RHS/RANGES can arrive in any order.
struct RowDef {
  char type = 'N';  // N, L, G, E
  std::string name;
  double rhs = 0.0;
  bool has_range = false;
  double range = 0.0;
  std::vector<std::pair<int, double>> terms;
};

/// Formats a double the way MPS consumers expect (full precision,
/// no locale surprises).
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Result<Model> ReadMpsFromString(const std::string& text) {
  Model model;
  model.lp.set_sense(lp::Sense::kMinimize);  // MPS default

  Section section = Section::kNone;
  std::map<std::string, int> row_index;   // constraint rows only
  std::map<std::string, int> col_index;
  std::vector<RowDef> rows;
  std::string objective_row;
  bool in_integer_block = false;

  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '*') {  // comment, or a branching-priority line
      std::vector<std::string> tok = Tokenize(line);
      if (tok.size() < 2 || tok[0] != "*" || tok[1] != "PRIORITY") continue;
      if (tok.size() != 4) {
        return ParseError(line_no, "PRIORITY wants column + integer");
      }
      auto col_it = col_index.find(tok[2]);
      if (col_it == col_index.end()) {
        return ParseError(line_no, "unknown column '" + tok[2] + "'");
      }
      Result<double> v = ParseNumber(tok[3], line_no);
      if (!v.ok()) return v.status();
      if (*v != std::floor(*v) || std::abs(*v) > 1e9) {
        return ParseError(line_no, "bad priority '" + tok[3] + "'");
      }
      model.branch_priority[col_it->second] = static_cast<int>(*v);
      continue;
    }
    const bool is_header = !std::isspace(static_cast<unsigned char>(line[0]));
    std::vector<std::string> tok = Tokenize(line);
    if (tok.empty()) continue;

    if (is_header) {
      const std::string& head = tok[0];
      if (head == "NAME") {
        continue;  // model name ignored
      } else if (head == "OBJSENSE") {
        section = Section::kObjsense;
        // Inline form: "OBJSENSE MAX".
        if (tok.size() >= 2) {
          model.lp.set_sense(tok[1] == "MAX" || tok[1] == "MAXIMIZE"
                                 ? lp::Sense::kMaximize
                                 : lp::Sense::kMinimize);
          section = Section::kNone;
        }
      } else if (head == "ROWS") {
        section = Section::kRows;
      } else if (head == "COLUMNS") {
        section = Section::kColumns;
      } else if (head == "RHS") {
        section = Section::kRhs;
      } else if (head == "RANGES") {
        section = Section::kRanges;
      } else if (head == "BOUNDS") {
        section = Section::kBounds;
      } else if (head == "ENDATA") {
        section = Section::kEnd;
        break;
      } else {
        return ParseError(line_no, "unknown section '" + head + "'");
      }
      continue;
    }

    switch (section) {
      case Section::kObjsense: {
        model.lp.set_sense(tok[0] == "MAX" || tok[0] == "MAXIMIZE"
                               ? lp::Sense::kMaximize
                               : lp::Sense::kMinimize);
        section = Section::kNone;
        break;
      }
      case Section::kRows: {
        if (tok.size() != 2) return ParseError(line_no, "ROWS wants 2 fields");
        const char type = std::toupper(static_cast<unsigned char>(tok[0][0]));
        if (type == 'N') {
          if (objective_row.empty()) objective_row = tok[1];
          // Extra free rows are legal MPS; they are ignored.
        } else if (type == 'L' || type == 'G' || type == 'E') {
          RowDef def;
          def.type = type;
          def.name = tok[1];
          row_index[def.name] = static_cast<int>(rows.size());
          rows.push_back(std::move(def));
        } else {
          return ParseError(line_no, std::string("bad row type '") + tok[0] +
                                         "'");
        }
        break;
      }
      case Section::kColumns: {
        if (tok.size() >= 3 && tok[1] == "'MARKER'") {
          if (tok[2] == "'INTORG'") in_integer_block = true;
          if (tok[2] == "'INTEND'") in_integer_block = false;
          break;
        }
        if (tok.size() < 3 || tok.size() % 2 == 0) {
          return ParseError(line_no, "COLUMNS wants name + (row,val) pairs");
        }
        auto it = col_index.find(tok[0]);
        int col;
        if (it == col_index.end()) {
          col = model.AddVariable(0.0, in_integer_block ? 1.0 : lp::kInf, 0.0,
                                  in_integer_block, tok[0]);
          col_index[tok[0]] = col;
        } else {
          col = it->second;
        }
        for (size_t i = 1; i + 1 < tok.size(); i += 2) {
          Result<double> v = ParseNumber(tok[i + 1], line_no);
          if (!v.ok()) return v.status();
          if (tok[i] == objective_row) {
            model.lp.SetObjective(col, model.lp.objective(col) + *v);
          } else {
            auto row_it = row_index.find(tok[i]);
            if (row_it == row_index.end()) {
              return ParseError(line_no, "unknown row '" + tok[i] + "'");
            }
            rows[row_it->second].terms.emplace_back(col, *v);
          }
        }
        break;
      }
      case Section::kRhs: {
        if (tok.size() < 3 || tok.size() % 2 == 0) {
          return ParseError(line_no, "RHS wants set-name + (row,val) pairs");
        }
        for (size_t i = 1; i + 1 < tok.size(); i += 2) {
          Result<double> v = ParseNumber(tok[i + 1], line_no);
          if (!v.ok()) return v.status();
          if (tok[i] == objective_row) continue;  // objective offset: skip
          auto row_it = row_index.find(tok[i]);
          if (row_it == row_index.end()) {
            return ParseError(line_no, "unknown row '" + tok[i] + "'");
          }
          rows[row_it->second].rhs = *v;
        }
        break;
      }
      case Section::kRanges: {
        if (tok.size() < 3 || tok.size() % 2 == 0) {
          return ParseError(line_no, "RANGES wants set-name + pairs");
        }
        for (size_t i = 1; i + 1 < tok.size(); i += 2) {
          Result<double> v = ParseNumber(tok[i + 1], line_no);
          if (!v.ok()) return v.status();
          auto row_it = row_index.find(tok[i]);
          if (row_it == row_index.end()) {
            return ParseError(line_no, "unknown row '" + tok[i] + "'");
          }
          rows[row_it->second].has_range = true;
          rows[row_it->second].range = *v;
        }
        break;
      }
      case Section::kBounds: {
        if (tok.size() < 3) return ParseError(line_no, "BOUNDS too short");
        const std::string& type = tok[0];
        auto col_it = col_index.find(tok[2]);
        if (col_it == col_index.end()) {
          return ParseError(line_no, "unknown column '" + tok[2] + "'");
        }
        const int col = col_it->second;
        double value = 0.0;
        if (type != "FR" && type != "MI" && type != "PL" && type != "BV") {
          if (tok.size() < 4) return ParseError(line_no, "missing bound");
          Result<double> v = ParseNumber(tok[3], line_no);
          if (!v.ok()) return v.status();
          value = *v;
        }
        const double lb = model.lp.variable_lb(col);
        const double ub = model.lp.variable_ub(col);
        if (type == "UP" || type == "UI") {
          model.lp.SetVariableBounds(col, lb, value);
          if (type == "UI") model.integer[col] = true;
        } else if (type == "LO" || type == "LI") {
          model.lp.SetVariableBounds(col, value, ub);
          if (type == "LI") model.integer[col] = true;
        } else if (type == "FX") {
          model.lp.SetVariableBounds(col, value, value);
        } else if (type == "FR") {
          model.lp.SetVariableBounds(col, -lp::kInf, lp::kInf);
        } else if (type == "MI") {
          model.lp.SetVariableBounds(col, -lp::kInf, ub);
        } else if (type == "PL") {
          model.lp.SetVariableBounds(col, lb, lp::kInf);
        } else if (type == "BV") {
          model.lp.SetVariableBounds(col, 0.0, 1.0);
          model.integer[col] = true;
        } else {
          return ParseError(line_no, "unknown bound type '" + type + "'");
        }
        break;
      }
      case Section::kNone:
      case Section::kEnd:
        return ParseError(line_no, "data outside any section");
    }
  }

  // Convert accumulated rows.
  for (RowDef& def : rows) {
    double lb, ub;
    switch (def.type) {
      case 'L':
        lb = -lp::kInf;
        ub = def.rhs;
        if (def.has_range) lb = def.rhs - std::abs(def.range);
        break;
      case 'G':
        lb = def.rhs;
        ub = lp::kInf;
        if (def.has_range) ub = def.rhs + std::abs(def.range);
        break;
      default:  // 'E'
        lb = ub = def.rhs;
        if (def.has_range) {
          if (def.range >= 0) {
            ub = def.rhs + def.range;
          } else {
            lb = def.rhs + def.range;
          }
        }
        break;
    }
    model.lp.AddRow(lb, ub, std::move(def.terms), def.name);
  }
  return model;
}

Result<Model> ReadMpsFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadMpsFromString(buffer.str());
}

namespace {

/// Unique names for MPS emission. Model names may repeat (SQPR labels
/// whole constraint families, e.g. every (III.7) row is "acyc"), but MPS
/// addresses rows/columns by name — collisions silently merge rows on
/// re-read. Suffix duplicates with their index.
std::vector<std::string> UniqueNames(int count, const char* fallback,
                                     const std::string& (*get)(const Model&,
                                                               int),
                                     const Model& model) {
  std::vector<std::string> names(count);
  std::map<std::string, int> seen;
  for (int i = 0; i < count; ++i) {
    std::string name = get(model, i);
    if (name.empty()) name = fallback + std::to_string(i);
    auto [it, fresh] = seen.emplace(name, i);
    if (!fresh) name += "_" + std::to_string(i);
    names[i] = std::move(name);
  }
  return names;
}

const std::string& GetVarName(const Model& m, int v) {
  return m.lp.variable_name(v);
}
const std::string& GetRowName(const Model& m, int r) {
  return m.lp.row_name(r);
}

}  // namespace

std::string WriteMpsToString(const Model& model) {
  const std::vector<std::string> col_names =
      UniqueNames(model.lp.num_variables(), "x", GetVarName, model);
  const std::vector<std::string> row_names =
      UniqueNames(model.lp.num_rows(), "r", GetRowName, model);
  std::ostringstream out;
  out << "NAME sqpr_model\n";
  out << "OBJSENSE\n "
      << (model.lp.sense() == lp::Sense::kMaximize ? "MAX" : "MIN") << "\n";
  out << "ROWS\n N obj\n";
  const int m = model.lp.num_rows();
  const int n = model.lp.num_variables();
  // Interval rows (finite lb < ub) are written as L rows plus RANGES.
  for (int r = 0; r < m; ++r) {
    const double lb = model.lp.row_lb(r), ub = model.lp.row_ub(r);
    char type;
    if (lb == ub) {
      type = 'E';
    } else if (std::isfinite(ub)) {
      type = 'L';
    } else {
      type = 'G';
    }
    out << " " << type << " " << row_names[r] << "\n";
  }

  // Column-major terms.
  std::vector<std::vector<std::pair<int, double>>> cols(n);
  for (int r = 0; r < m; ++r) {
    for (const auto& [v, coef] : model.lp.row_terms(r)) {
      cols[v].emplace_back(r, coef);
    }
  }
  out << "COLUMNS\n";
  bool in_int = false;
  int marker = 0;
  for (int v = 0; v < n; ++v) {
    if (model.integer[v] != in_int) {
      out << " MARKER" << marker++ << " 'MARKER' "
          << (model.integer[v] ? "'INTORG'" : "'INTEND'") << "\n";
      in_int = model.integer[v];
    }
    if (model.lp.objective(v) != 0.0) {
      out << " " << col_names[v] << " obj " << Num(model.lp.objective(v))
          << "\n";
    }
    for (const auto& [r, coef] : cols[v]) {
      out << " " << col_names[v] << " " << row_names[r] << " " << Num(coef)
          << "\n";
    }
    if (model.lp.objective(v) == 0.0 && cols[v].empty()) {
      // MPS requires every column to appear; emit a zero objective entry.
      out << " " << col_names[v] << " obj 0\n";
    }
  }
  if (in_int) out << " MARKER" << marker++ << " 'MARKER' 'INTEND'\n";

  out << "RHS\n";
  for (int r = 0; r < m; ++r) {
    const double lb = model.lp.row_lb(r), ub = model.lp.row_ub(r);
    const double rhs = lb == ub ? lb : (std::isfinite(ub) ? ub : lb);
    if (rhs != 0.0) {
      out << " rhs " << row_names[r] << " " << Num(rhs) << "\n";
    }
  }
  bool any_range = false;
  for (int r = 0; r < m; ++r) {
    const double lb = model.lp.row_lb(r), ub = model.lp.row_ub(r);
    if (lb != ub && std::isfinite(lb) && std::isfinite(ub)) {
      if (!any_range) {
        out << "RANGES\n";
        any_range = true;
      }
      out << " rng " << row_names[r] << " " << Num(ub - lb) << "\n";
    }
  }

  out << "BOUNDS\n";
  for (int v = 0; v < n; ++v) {
    const double lb = model.lp.variable_lb(v), ub = model.lp.variable_ub(v);
    const std::string& name = col_names[v];
    if (lb == ub) {
      out << " FX bnd " << name << " " << Num(lb) << "\n";
      continue;
    }
    if (!std::isfinite(lb)) {
      out << " MI bnd " << name << "\n";
    } else if (lb != 0.0) {
      out << " LO bnd " << name << " " << Num(lb) << "\n";
    }
    if (std::isfinite(ub)) {
      out << " UP bnd " << name << " " << Num(ub) << "\n";
    } else if (model.integer[v]) {
      out << " PL bnd " << name << "\n";  // undo the INTORG [0,1] default
    }
  }
  for (int v = 0; v < n && v < static_cast<int>(model.branch_priority.size());
       ++v) {
    if (model.branch_priority[v] != 0) {
      out << "* PRIORITY " << col_names[v] << " " << model.branch_priority[v]
          << "\n";
    }
  }
  out << "ENDATA\n";
  return out.str();
}

Status WriteMpsFile(const Model& model, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write '" + path + "'");
  out << WriteMpsToString(model);
  return out ? Status::OK()
             : Status::Internal("short write to '" + path + "'");
}

std::string WriteLpToString(const Model& model) {
  const std::vector<std::string> col_names =
      UniqueNames(model.lp.num_variables(), "x", GetVarName, model);
  const std::vector<std::string> row_names =
      UniqueNames(model.lp.num_rows(), "r", GetRowName, model);
  std::ostringstream out;
  out << (model.lp.sense() == lp::Sense::kMaximize ? "Maximize" : "Minimize")
      << "\n obj:";
  const int n = model.lp.num_variables();
  for (int v = 0; v < n; ++v) {
    const double c = model.lp.objective(v);
    if (c == 0.0) continue;
    out << (c >= 0 ? " + " : " - ") << Num(std::abs(c)) << " "
        << col_names[v];
  }
  out << "\nSubject To\n";
  for (int r = 0; r < model.lp.num_rows(); ++r) {
    const double lb = model.lp.row_lb(r), ub = model.lp.row_ub(r);
    std::ostringstream expr;
    bool first = true;
    for (const auto& [v, coef] : model.lp.row_terms(r)) {
      expr << (coef >= 0 ? (first ? "" : " + ") : " - ")
           << Num(std::abs(coef)) << " " << col_names[v];
      first = false;
    }
    if (lb == ub) {
      out << " " << row_names[r] << ": " << expr.str() << " = " << Num(lb)
          << "\n";
    } else {
      if (std::isfinite(ub)) {
        out << " " << row_names[r] << ": " << expr.str() << " <= " << Num(ub)
            << "\n";
      }
      if (std::isfinite(lb)) {
        out << " " << row_names[r] << (std::isfinite(ub) ? "_lo" : "") << ": "
            << expr.str() << " >= " << Num(lb) << "\n";
      }
    }
  }
  out << "Bounds\n";
  for (int v = 0; v < n; ++v) {
    const double lb = model.lp.variable_lb(v), ub = model.lp.variable_ub(v);
    out << " " << (std::isfinite(lb) ? Num(lb) : "-inf") << " <= "
        << col_names[v] << " <= " << (std::isfinite(ub) ? Num(ub) : "+inf")
        << "\n";
  }
  out << "Generals\n";
  for (int v = 0; v < n; ++v) {
    if (model.integer[v]) out << " " << col_names[v];
  }
  out << "\nEnd\n";
  return out.str();
}

Status WriteLpFile(const Model& model, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write '" + path + "'");
  out << WriteLpToString(model);
  return out ? Status::OK()
             : Status::Internal("short write to '" + path + "'");
}

}  // namespace milp
}  // namespace sqpr
