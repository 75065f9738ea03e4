#include "milp/mps_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "milp/solver.h"

namespace sqpr {
namespace milp {
namespace {

TEST(MpsReadTest, ParsesMinimalKnapsack) {
  const std::string text = R"(* classic knapsack
NAME test
OBJSENSE MAX
ROWS
 N obj
 L cap
COLUMNS
 MARKER0 'MARKER' 'INTORG'
 a obj 10 cap 3
 b obj 13 cap 4
 c obj 7 cap 2
 d obj 8 cap 3
 MARKER1 'MARKER' 'INTEND'
RHS
 rhs cap 7
ENDATA
)";
  Result<Model> model = ReadMpsFromString(text);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(model->lp.num_variables(), 4);
  EXPECT_EQ(model->lp.num_rows(), 1);
  EXPECT_EQ(model->lp.sense(), lp::Sense::kMaximize);
  for (int v = 0; v < 4; ++v) {
    EXPECT_TRUE(model->integer[v]);
    EXPECT_DOUBLE_EQ(model->lp.variable_lb(v), 0.0);
    EXPECT_DOUBLE_EQ(model->lp.variable_ub(v), 1.0);
  }
  EXPECT_DOUBLE_EQ(model->lp.row_ub(0), 7.0);
  EXPECT_FALSE(std::isfinite(model->lp.row_lb(0)));

  Solver solver;
  const MipResult r = solver.Solve(*model, SolverOptions{});
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 23.0, 1e-7);  // items a + b
}

TEST(MpsReadTest, BoundTypes) {
  const std::string text = R"(NAME bounds
ROWS
 N obj
 G low
COLUMNS
 u obj 1 low 1
 l obj 1 low 1
 f obj 1 low 1
 x obj 1 low 1
 m obj 1 low 1
RHS
 rhs low -100
BOUNDS
 UP bnd u 4.5
 LO bnd l -2
 FR bnd f
 FX bnd x 3
 MI bnd m
ENDATA
)";
  Result<Model> model = ReadMpsFromString(text);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(model->lp.sense(), lp::Sense::kMinimize);  // MPS default
  const int u = 0, l = 1, f = 2, x = 3, m = 4;
  EXPECT_DOUBLE_EQ(model->lp.variable_ub(u), 4.5);
  EXPECT_DOUBLE_EQ(model->lp.variable_lb(l), -2.0);
  EXPECT_FALSE(std::isfinite(model->lp.variable_lb(f)));
  EXPECT_FALSE(std::isfinite(model->lp.variable_ub(f)));
  EXPECT_DOUBLE_EQ(model->lp.variable_lb(x), 3.0);
  EXPECT_DOUBLE_EQ(model->lp.variable_ub(x), 3.0);
  EXPECT_FALSE(std::isfinite(model->lp.variable_lb(m)));
}

TEST(MpsReadTest, RangesProduceIntervalRows) {
  const std::string text = R"(NAME ranges
ROWS
 N obj
 L lrow
 G grow
 E erow
COLUMNS
 x obj 1 lrow 1 grow 1
 x erow 1
RHS
 rhs lrow 10 grow 2 erow 5
RANGES
 rng lrow 3 grow 4 erow 2
BOUNDS
 FR bnd x
ENDATA
)";
  Result<Model> model = ReadMpsFromString(text);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // L with rhs 10 range 3 -> [7, 10]; G with rhs 2 range 4 -> [2, 6];
  // E with rhs 5 range +2 -> [5, 7].
  EXPECT_DOUBLE_EQ(model->lp.row_lb(0), 7.0);
  EXPECT_DOUBLE_EQ(model->lp.row_ub(0), 10.0);
  EXPECT_DOUBLE_EQ(model->lp.row_lb(1), 2.0);
  EXPECT_DOUBLE_EQ(model->lp.row_ub(1), 6.0);
  EXPECT_DOUBLE_EQ(model->lp.row_lb(2), 5.0);
  EXPECT_DOUBLE_EQ(model->lp.row_ub(2), 7.0);
}

TEST(MpsReadTest, ReportsErrorsWithLineNumbers) {
  EXPECT_FALSE(ReadMpsFromString("GARBAGE\n").ok());
  const Status bad_row =
      ReadMpsFromString("ROWS\n Q what\n").status();
  EXPECT_TRUE(bad_row.IsInvalidArgument());
  EXPECT_NE(bad_row.message().find("line 2"), std::string::npos);
  const Status bad_col =
      ReadMpsFromString("ROWS\n N obj\nCOLUMNS\n x nosuchrow 1\n").status();
  EXPECT_NE(bad_col.message().find("unknown row"), std::string::npos);
  const Status bad_num =
      ReadMpsFromString("ROWS\n N obj\n L c\nCOLUMNS\n x c abc\n").status();
  EXPECT_NE(bad_num.message().find("bad number"), std::string::npos);
}

TEST(MpsReadTest, BranchPrioritiesRoundTrip) {
  Model m;
  m.AddVariable(0.0, 1.0, 3.0, true, "admit", /*priority=*/3);
  m.AddVariable(0.0, 1.0, 1.0, true, "place", /*priority=*/-1);
  m.AddVariable(0.0, 4.0, 0.5, false, "flow");
  m.lp.AddRow(-lp::kInf, 1.0, {{0, 1.0}, {1, 1.0}, {2, 0.25}}, "cap");
  const std::string text = WriteMpsToString(m);
  Result<Model> reread = ReadMpsFromString(text);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString() << "\n" << text;
  EXPECT_EQ(reread->branch_priority, m.branch_priority) << text;

  // A priority naming no column, or not an integer, is an error.
  const std::string head = "ROWS\n N obj\nCOLUMNS\n x obj 1\n";
  const Status unknown =
      ReadMpsFromString(head + "* PRIORITY y 2\nENDATA\n").status();
  EXPECT_NE(unknown.message().find("unknown column"), std::string::npos);
  const Status fractional =
      ReadMpsFromString(head + "* PRIORITY x 1.5\nENDATA\n").status();
  EXPECT_NE(fractional.message().find("bad priority"), std::string::npos);
  // Any other comment stays a comment.
  EXPECT_TRUE(ReadMpsFromString(head + "* PRIORITIES ahead\nENDATA\n").ok());
}

TEST(MpsWriteTest, LpFormatContainsAllParts) {
  Model m;
  const int a = m.AddBinary(3.0, "a");
  const int y = m.AddVariable(-1.0, 5.0, -2.0, /*is_integer=*/false, "y");
  m.lp.AddRow(1.0, 4.0, {{a, 2.0}, {y, 1.0}}, "band");
  const std::string text = WriteLpToString(m);
  EXPECT_NE(text.find("Maximize"), std::string::npos);
  EXPECT_NE(text.find("band"), std::string::npos);
  EXPECT_NE(text.find("Generals"), std::string::npos);
  EXPECT_NE(text.find("a"), std::string::npos);
}

Model RandomModel(uint64_t seed) {
  Rng rng(seed);
  Model m;
  const int n = 3 + static_cast<int>(rng.NextUint64() % 6);
  for (int i = 0; i < n; ++i) {
    const bool integer = rng.NextDouble() < 0.5;
    double lb = 0.0, ub = integer ? 1.0 : 10.0;
    const double kind = rng.NextDouble();
    if (kind < 0.2) {
      lb = ub = std::floor(5 * rng.NextDouble());  // pinned
    } else if (kind < 0.35) {
      lb = -5.0;
    } else if (kind < 0.45 && !integer) {
      ub = lp::kInf;
    }
    const double obj = std::round(20.0 * (rng.NextDouble() - 0.3)) / 2.0;
    m.AddVariable(lb, ub, obj, integer, "v" + std::to_string(i));
  }
  const int rows = 1 + static_cast<int>(rng.NextUint64() % 4);
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int v = 0; v < n; ++v) {
      if (rng.NextDouble() < 0.6) {
        terms.emplace_back(v, std::round(8.0 * (rng.NextDouble() - 0.4)));
      }
    }
    if (terms.empty()) terms.emplace_back(0, 1.0);
    const double kind = rng.NextDouble();
    const double b = std::round(10.0 * rng.NextDouble());
    if (kind < 0.4) {
      m.lp.AddRow(-lp::kInf, b, terms, "r" + std::to_string(r));
    } else if (kind < 0.7) {
      m.lp.AddRow(-b, lp::kInf, terms, "r" + std::to_string(r));
    } else if (kind < 0.85) {
      m.lp.AddRow(-b, b + 2.0, terms, "r" + std::to_string(r));  // interval
    } else {
      m.lp.AddRow(b, b, terms, "r" + std::to_string(r));  // equality
    }
  }
  if (rng.NextDouble() < 0.5) m.lp.set_sense(lp::Sense::kMinimize);
  return m;
}

class MpsRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(MpsRoundTrip, PreservesStructureAndOptimum) {
  const Model original = RandomModel(0x715717 + GetParam());
  const std::string text = WriteMpsToString(original);
  Result<Model> reread = ReadMpsFromString(text);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString() << "\n" << text;

  ASSERT_EQ(reread->lp.num_variables(), original.lp.num_variables());
  ASSERT_EQ(reread->lp.num_rows(), original.lp.num_rows());
  EXPECT_EQ(reread->lp.sense(), original.lp.sense());
  for (int v = 0; v < original.lp.num_variables(); ++v) {
    EXPECT_EQ(reread->integer[v], original.integer[v]) << "var " << v;
    EXPECT_DOUBLE_EQ(reread->lp.variable_lb(v), original.lp.variable_lb(v));
    EXPECT_DOUBLE_EQ(reread->lp.variable_ub(v), original.lp.variable_ub(v));
    EXPECT_DOUBLE_EQ(reread->lp.objective(v), original.lp.objective(v));
  }
  for (int r = 0; r < original.lp.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(reread->lp.row_lb(r), original.lp.row_lb(r)) << r;
    EXPECT_DOUBLE_EQ(reread->lp.row_ub(r), original.lp.row_ub(r)) << r;
  }

  // Both must solve to the same optimum (or agree on infeasibility).
  Solver solver;
  SolverOptions opts;
  opts.deadline = Deadline::AfterMillis(2000);
  const MipResult a = solver.Solve(original, opts);
  const MipResult b = solver.Solve(*reread, opts);
  ASSERT_EQ(a.status, b.status) << "instance " << GetParam();
  if (a.status == MipStatus::kOptimal) {
    EXPECT_NEAR(a.objective, b.objective, 1e-6) << "instance " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, MpsRoundTrip, ::testing::Range(0, 30));

}  // namespace
}  // namespace milp
}  // namespace sqpr
