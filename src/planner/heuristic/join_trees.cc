#include "planner/heuristic/join_trees.h"

#include <algorithm>

#include "common/logging.h"

namespace sqpr {
namespace {

std::unique_ptr<JoinTree> Leaf(StreamId s) {
  auto node = std::make_unique<JoinTree>();
  node->stream = s;
  return node;
}

std::unique_ptr<JoinTree> CloneTree(const JoinTree& tree) {
  auto node = std::make_unique<JoinTree>();
  node->stream = tree.stream;
  node->op = tree.op;
  if (tree.left) node->left = CloneTree(*tree.left);
  if (tree.right) node->right = CloneTree(*tree.right);
  return node;
}

/// Recursively enumerates all unordered binary trees over the leaves
/// selected by `mask` (indices into `leaves`).
Result<std::vector<std::unique_ptr<JoinTree>>> TreesOver(
    uint32_t mask, const std::vector<StreamId>& leaves, Catalog* catalog) {
  std::vector<std::unique_ptr<JoinTree>> out;
  const int bits = __builtin_popcount(mask);
  if (bits == 1) {
    const int i = __builtin_ctz(mask);
    out.push_back(Leaf(leaves[i]));
    return out;
  }
  // Each unordered split {sub, mask^sub} visited once (sub > other).
  for (uint32_t sub = (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask) {
    const uint32_t other = mask ^ sub;
    if (sub < other) continue;
    Result<std::vector<std::unique_ptr<JoinTree>>> left_trees =
        TreesOver(sub, leaves, catalog);
    if (!left_trees.ok()) return left_trees.status();
    Result<std::vector<std::unique_ptr<JoinTree>>> right_trees =
        TreesOver(other, leaves, catalog);
    if (!right_trees.ok()) return right_trees.status();
    for (const auto& lt : *left_trees) {
      for (const auto& rt : *right_trees) {
        Result<OperatorId> op = catalog->JoinOperator(lt->stream, rt->stream);
        if (!op.ok()) return op.status();
        auto node = std::make_unique<JoinTree>();
        node->op = *op;
        node->stream = catalog->op(*op).output;
        node->left = CloneTree(*lt);
        node->right = CloneTree(*rt);
        out.push_back(std::move(node));
      }
    }
  }
  return out;
}

}  // namespace

Result<std::vector<std::unique_ptr<JoinTree>>> EnumerateJoinTrees(
    StreamId query, Catalog* catalog) {
  if (catalog->stream(query).is_base) {
    std::vector<std::unique_ptr<JoinTree>> out;
    out.push_back(Leaf(query));
    return out;
  }
  // Copy for clarity; catalog entries have stable addresses, so the
  // interning TreesOver does below could not invalidate the reference.
  // On a warmed query (SqprPlanner::WarmCatalog) every JoinOperator
  // call here is a canonical-map hit — no new ids, so the greedy
  // fallback never moves StreamId assignment.
  const std::vector<StreamId> leaves = catalog->stream(query).leaves;
  if (leaves.size() > 8) {
    return Status::InvalidArgument(
        "abstract plan enumeration limited to 8-way joins");
  }
  return TreesOver((1u << leaves.size()) - 1, leaves, catalog);
}

Result<std::unique_ptr<JoinTree>> LeftDeepTree(StreamId query,
                                               Catalog* catalog) {
  if (catalog->stream(query).is_base) return Leaf(query);
  // Copy for clarity (catalog entries have stable addresses).
  const std::vector<StreamId> leaves = catalog->stream(query).leaves;
  SQPR_CHECK(leaves.size() >= 2);
  std::unique_ptr<JoinTree> acc = Leaf(leaves[0]);
  for (size_t i = 1; i < leaves.size(); ++i) {
    Result<OperatorId> op = catalog->JoinOperator(acc->stream, leaves[i]);
    if (!op.ok()) return op.status();
    auto node = std::make_unique<JoinTree>();
    node->op = *op;
    node->stream = catalog->op(*op).output;
    node->left = std::move(acc);
    node->right = Leaf(leaves[i]);
    acc = std::move(node);
  }
  return acc;
}

std::vector<OperatorId> BottomUpOperators(const JoinTree& tree) {
  std::vector<OperatorId> out;
  if (tree.left) {
    const auto sub = BottomUpOperators(*tree.left);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  if (tree.right) {
    const auto sub = BottomUpOperators(*tree.right);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  if (!tree.is_leaf()) out.push_back(tree.op);
  return out;
}

}  // namespace sqpr
