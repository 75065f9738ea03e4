#include "model/catalog.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace sqpr {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kJoin:
      return "join";
    case OpKind::kFilter:
      return "filter";
    case OpKind::kProject:
      return "project";
  }
  return "unknown";
}

// ---- ProducerList -----------------------------------------------------

ProducerList::~ProducerList() {
  Node* node = head_.next.load(std::memory_order_relaxed);
  while (node != nullptr) {
    Node* next = node->next.load(std::memory_order_relaxed);
    delete node;
    node = next;
  }
}

OperatorId ProducerList::operator[](size_t i) const {
  SQPR_CHECK(i < size()) << "producer index out of range";
  const Node* node = &head_;
  while (i >= kChunk) {
    node = node->next.load(std::memory_order_acquire);
    i -= kChunk;
  }
  return node->ops[i];
}

void ProducerList::Append(OperatorId op) {
  const size_t i = size_.load(std::memory_order_relaxed);
  if (i > 0 && i % kChunk == 0) {
    Node* node = new Node;
    tail_->next.store(node, std::memory_order_release);
    tail_ = node;
  }
  tail_->ops[i % kChunk] = op;
  // Publication point: readers that acquire a size covering slot i also
  // see the slot's contents (and the chunk link stored above).
  size_.store(i + 1, std::memory_order_release);
}

// ---- Catalog ----------------------------------------------------------

StreamId Catalog::AddBaseStream(HostId source_host, double rate_mbps,
                                std::string name) {
  SQPR_CHECK(rate_mbps > 0) << "base stream needs a positive rate";
  std::lock_guard<std::mutex> lock(intern_mu_);
  if (streams_.Full()) return kInvalidStream;
  StreamInfo info;
  info.id = static_cast<StreamId>(streams_.size());
  info.is_base = true;
  info.source_host = source_host;
  info.rate_mbps = rate_mbps;
  info.leaves = {info.id};
  info.name = name.empty() ? "base" + std::to_string(info.id) : std::move(name);
  const StreamId id = info.id;
  streams_.Append(std::move(info));
  producers_.AppendDefault();
  return id;
}

double Catalog::SumLeafRates(const std::vector<StreamId>& leaves) const {
  double total = 0.0;
  for (StreamId leaf : leaves) {
    SQPR_CHECK(streams_[leaf].is_base);
    total += streams_[leaf].rate_mbps;
  }
  return total;
}

StreamId Catalog::InternJoinStreamLocked(std::vector<StreamId> sorted_leaves) {
  auto it = join_stream_by_leaves_.find(sorted_leaves);
  if (it != join_stream_by_leaves_.end()) return it->second;

  // Graceful exhaustion: finding an existing stream (above) always
  // works; only *new* interning is refused.
  if (streams_.Full()) return kInvalidStream;

  StreamInfo info;
  info.id = static_cast<StreamId>(streams_.size());
  info.is_base = false;
  info.rate_mbps = cost_model_.JoinOutputRate(sorted_leaves,
                                              SumLeafRates(sorted_leaves));
  info.name = "join{";
  for (size_t i = 0; i < sorted_leaves.size(); ++i) {
    if (i > 0) info.name += ",";
    info.name += std::to_string(sorted_leaves[i]);
  }
  info.name += "}";
  info.leaves = sorted_leaves;
  const StreamId id = info.id;
  streams_.Append(std::move(info));
  producers_.AppendDefault();
  join_stream_by_leaves_.emplace(std::move(sorted_leaves), id);
  return id;
}

Result<StreamId> Catalog::CanonicalJoinStream(
    std::vector<StreamId> base_leaves) {
  std::sort(base_leaves.begin(), base_leaves.end());
  if (base_leaves.size() < 2) {
    return Status::InvalidArgument("join needs at least two leaves");
  }
  if (std::adjacent_find(base_leaves.begin(), base_leaves.end()) !=
      base_leaves.end()) {
    return Status::InvalidArgument("join leaves must be distinct");
  }
  std::lock_guard<std::mutex> lock(intern_mu_);
  for (StreamId leaf : base_leaves) {
    if (leaf < 0 || leaf >= num_streams() || !streams_[leaf].is_base) {
      return Status::InvalidArgument("leaf " + std::to_string(leaf) +
                                     " is not a base stream");
    }
  }
  const StreamId id = InternJoinStreamLocked(std::move(base_leaves));
  if (id == kInvalidStream) {
    return Status::ResourceExhausted("catalog stream store is full");
  }
  return id;
}

Result<OperatorId> Catalog::JoinOperatorLocked(StreamId left, StreamId right) {
  if (left < 0 || left >= num_streams() || right < 0 ||
      right >= num_streams()) {
    return Status::InvalidArgument("unknown join input stream");
  }
  const StreamInfo& l = streams_[left];
  const StreamInfo& r = streams_[right];

  std::vector<StreamId> leaves;
  leaves.reserve(l.leaves.size() + r.leaves.size());
  std::merge(l.leaves.begin(), l.leaves.end(), r.leaves.begin(),
             r.leaves.end(), std::back_inserter(leaves));
  if (std::adjacent_find(leaves.begin(), leaves.end()) != leaves.end()) {
    return Status::InvalidArgument(
        "join inputs must have disjoint base-leaf sets");
  }

  std::vector<StreamId> inputs = {left, right};
  std::sort(inputs.begin(), inputs.end());
  auto it = join_op_by_inputs_.find(inputs);
  if (it != join_op_by_inputs_.end()) return it->second;

  if (operators_.Full()) {
    return Status::ResourceExhausted("catalog operator store is full");
  }
  const StreamId output = InternJoinStreamLocked(leaves);
  if (output == kInvalidStream) {
    return Status::ResourceExhausted("catalog stream store is full");
  }

  OperatorInfo op;
  op.id = static_cast<OperatorId>(operators_.size());
  op.kind = OpKind::kJoin;
  op.inputs = inputs;
  op.output = output;
  op.cpu_cost = cost_model_.OperatorCpuCost(streams_[left].rate_mbps +
                                            streams_[right].rate_mbps);
  op.mem_mb = cost_model_.OperatorMemMb(streams_[left].rate_mbps +
                                        streams_[right].rate_mbps);
  const OperatorId id = op.id;
  // Publication order matters for lock-free readers: the operator entry
  // first (so a producer list never names an unpublished operator), then
  // the producer-list append.
  operators_.Append(std::move(op));
  producers_.Mutable(output).Append(id);
  join_op_by_inputs_.emplace(std::move(inputs), id);
  return id;
}

Result<OperatorId> Catalog::JoinOperator(StreamId left, StreamId right) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  return JoinOperatorLocked(left, right);
}

Result<OperatorId> Catalog::UnaryOperator(OpKind kind, StreamId input,
                                          int32_t tag,
                                          double output_rate_fraction) {
  if (kind == OpKind::kJoin) {
    return Status::InvalidArgument("use JoinOperator for joins");
  }
  if (output_rate_fraction <= 0.0 || output_rate_fraction > 1.0) {
    return Status::InvalidArgument("output fraction must be in (0, 1]");
  }
  std::lock_guard<std::mutex> lock(intern_mu_);
  if (input < 0 || input >= num_streams()) {
    return Status::InvalidArgument("unknown input stream");
  }
  const auto sig = std::make_pair(
      std::make_pair(static_cast<int>(kind), input), tag);
  auto it = unary_stream_by_sig_.find(sig);
  if (it != unary_stream_by_sig_.end()) {
    // The stream (and its unique producer) already exist.
    const ProducerList& prods = producers_[it->second];
    SQPR_CHECK(!prods.empty());
    return prods.front();
  }

  if (streams_.Full() || operators_.Full()) {
    return Status::ResourceExhausted("catalog store is full");
  }

  const StreamInfo& in = streams_[input];
  StreamInfo out;
  out.id = static_cast<StreamId>(streams_.size());
  out.is_base = false;
  out.rate_mbps = in.rate_mbps * output_rate_fraction;
  out.leaves = in.leaves;
  out.name = std::string(OpKindName(kind)) + std::to_string(tag) + "(" +
             in.name + ")";
  const StreamId output = out.id;
  const double in_rate = in.rate_mbps;
  streams_.Append(std::move(out));
  producers_.AppendDefault();
  unary_stream_by_sig_.emplace(sig, output);

  OperatorInfo op;
  op.id = static_cast<OperatorId>(operators_.size());
  op.kind = kind;
  op.inputs = {input};
  op.output = output;
  op.cpu_cost = cost_model_.OperatorCpuCost(in_rate);
  op.mem_mb = cost_model_.OperatorMemMb(in_rate);
  op.output_rate_fraction = output_rate_fraction;
  const OperatorId id = op.id;
  operators_.Append(std::move(op));
  producers_.Mutable(output).Append(id);
  return id;
}

Status Catalog::UpdateBaseRate(StreamId base, double new_rate_mbps) {
  // Exclusive by contract: no concurrent reader or interner (the
  // planning service plans on one thread).
  // The lock still serialises against a stray interner defensively.
  std::lock_guard<std::mutex> lock(intern_mu_);
  if (base < 0 || base >= num_streams()) {
    return Status::InvalidArgument("unknown stream");
  }
  if (!streams_[base].is_base) {
    return Status::InvalidArgument("only base stream rates can be measured");
  }
  if (new_rate_mbps <= 0) {
    return Status::InvalidArgument("rate must be positive");
  }
  streams_.Mutable(base).rate_mbps = new_rate_mbps;

  // Streams are created after their inputs, so one pass in id order
  // refreshes every composite. A composite with a unary producer takes
  // fraction x input rate; otherwise it is a canonical join stream whose
  // rate is a function of its base leaves.
  for (StreamId s = 0; s < num_streams(); ++s) {
    StreamInfo& info = streams_.Mutable(s);
    if (info.is_base) continue;
    const OperatorInfo* unary = nullptr;
    for (OperatorId o : producers_[s]) {
      if (operators_[o].kind != OpKind::kJoin) {
        unary = &operators_[o];
        break;
      }
    }
    if (unary != nullptr) {
      info.rate_mbps = streams_[unary->inputs[0]].rate_mbps *
                       unary->output_rate_fraction;
    } else {
      info.rate_mbps =
          cost_model_.JoinOutputRate(info.leaves, SumLeafRates(info.leaves));
    }
  }
  for (OperatorId o = 0; o < num_operators(); ++o) {
    OperatorInfo& op = operators_.Mutable(o);
    double in_rate = 0.0;
    for (StreamId in : op.inputs) in_rate += streams_[in].rate_mbps;
    op.cpu_cost = cost_model_.OperatorCpuCost(in_rate);
    op.mem_mb = cost_model_.OperatorMemMb(in_rate);
  }
  return Status::OK();
}

Result<Closure> Catalog::JoinClosure(StreamId stream) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  return JoinClosureLocked(stream);
}

Result<Closure> Catalog::JoinClosureLocked(StreamId stream) {
  if (stream < 0 || stream >= num_streams()) {
    return Status::InvalidArgument("unknown stream");
  }
  auto cached = closure_cache_.find(stream);
  if (cached != closure_cache_.end()) return cached->second;

  const bool is_base = streams_[stream].is_base;
  const std::vector<StreamId> leaves = streams_[stream].leaves;
  Closure closure;
  if (is_base) {
    closure.streams = {stream};
    closure_cache_[stream] = closure;
    return closure;
  }

  // Unary composites: closure is own stream + producer + input closure.
  if (!producers_[stream].empty() &&
      operators_[producers_[stream].front()].kind != OpKind::kJoin) {
    const OperatorId producer_id = producers_[stream].front();
    const StreamId producer_input = operators_[producer_id].inputs.front();
    Result<Closure> sub = JoinClosureLocked(producer_input);
    if (!sub.ok()) return sub.status();
    closure = *sub;
    closure.streams.push_back(stream);
    closure.operators.push_back(producer_id);
    closure_cache_[stream] = closure;
    return closure;
  }

  // Join composite: enumerate every subset of the leaf set with >= 2
  // elements (its canonical stream) and every unordered binary split of
  // each subset (one operator per split). k <= ~6 keeps this tiny.
  const int k = static_cast<int>(leaves.size());
  SQPR_CHECK(k >= 2);
  SQPR_CHECK(k <= 16) << "join arity too large for closure expansion";

  std::set<StreamId> streams_set(leaves.begin(), leaves.end());
  std::set<OperatorId> ops_set;

  // Map from leaf-subset mask to its canonical stream id.
  std::vector<StreamId> by_mask(static_cast<size_t>(1) << k, kInvalidStream);
  for (int i = 0; i < k; ++i) by_mask[static_cast<size_t>(1) << i] = leaves[i];

  for (uint32_t mask = 1; mask < (1u << k); ++mask) {
    if (__builtin_popcount(mask) < 2) continue;
    std::vector<StreamId> subset;
    for (int i = 0; i < k; ++i) {
      if (mask & (1u << i)) subset.push_back(leaves[i]);
    }
    by_mask[mask] = InternJoinStreamLocked(subset);  // already sorted
    if (by_mask[mask] == kInvalidStream) {
      // Graceful exhaustion mid-expansion: whatever interned so far
      // stays published and reusable, but this closure is incomplete —
      // report it rather than caching a partial expansion. (The caller
      // turns this into an admission rejection.)
      return Status::ResourceExhausted(
          "catalog stream store exhausted expanding the closure of stream " +
          std::to_string(stream));
    }
    streams_set.insert(by_mask[mask]);
  }
  for (uint32_t mask = 1; mask < (1u << k); ++mask) {
    if (__builtin_popcount(mask) < 2) continue;
    // Enumerate unordered splits: iterate proper non-empty submasks and
    // take each {sub, mask^sub} pair once.
    for (uint32_t sub = (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask) {
      const uint32_t other = mask ^ sub;
      if (sub < other) continue;  // count each unordered split once
      Result<OperatorId> op = JoinOperatorLocked(by_mask[sub], by_mask[other]);
      if (!op.ok()) {
        if (op.status().IsResourceExhausted()) return op.status();
        SQPR_CHECK(op.ok()) << op.status().ToString();
      }
      ops_set.insert(*op);
    }
  }

  closure.streams.assign(streams_set.begin(), streams_set.end());
  closure.operators.assign(ops_set.begin(), ops_set.end());
  closure_cache_[stream] = closure;
  return closure;
}

}  // namespace sqpr
