#include "sem/gather_scatter.hpp"

#include <cstring>
#include <map>
#include <stdexcept>

namespace sem {

namespace {

// Dedicated internal tags for the two Sum phases (below user tag space and
// distinct from mpimini's own collective tags).
constexpr int kTagGsData = -101;
constexpr int kTagGsTotal = -102;

template <typename T>
void AppendPod(std::vector<std::byte>& buf, const T& v) {
  const std::size_t old = buf.size();
  buf.resize(old + sizeof(T));
  std::memcpy(buf.data() + old, &v, sizeof(T));
}

template <typename T>
T ReadPod(const std::vector<std::byte>& buf, std::size_t& pos) {
  T v;
  if (pos + sizeof(T) > buf.size()) {
    throw std::runtime_error("sem: gather-scatter wire format underrun");
  }
  std::memcpy(&v, buf.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

}  // namespace

GatherScatter::GatherScatter(mpimini::Comm comm,
                             std::span<const std::int64_t> gids)
    : comm_(comm), ndofs_(gids.size()) {
  const int nranks = comm_.Size();

  // Group local dofs by global id (sorted => deterministic wire order).
  std::map<std::int64_t, std::vector<std::int32_t>> by_gid;
  for (std::size_t i = 0; i < gids.size(); ++i) {
    by_gid[gids[i]].push_back(static_cast<std::int32_t>(i));
  }

  // Round 1: tell each coordinator which ids we hold and how many local
  // copies of each. Wire format per id: int64 gid, int32 count.
  std::vector<std::vector<std::byte>> outgoing(
      static_cast<std::size_t>(nranks));
  // Remember, per coordinator, the (gid -> local copies) in wire order.
  std::vector<std::vector<const std::vector<std::int32_t>*>> sent_groups(
      static_cast<std::size_t>(nranks));
  std::vector<std::vector<std::int64_t>> sent_gids(
      static_cast<std::size_t>(nranks));
  for (const auto& [gid, indices] : by_gid) {
    const auto coord = static_cast<std::size_t>(gid % nranks);
    AppendPod(outgoing[coord], gid);
    AppendPod(outgoing[coord], static_cast<std::int32_t>(indices.size()));
    sent_groups[coord].push_back(&indices);
    sent_gids[coord].push_back(gid);
  }
  std::vector<std::vector<std::byte>> incoming = comm_.AllToAllBytes(outgoing);

  // Coordinator view: total copy count and holder list per id.
  struct CoordEntry {
    std::int64_t total_copies = 0;
    std::vector<int> holders;  // ranks holding this id, ascending
  };
  std::map<std::int64_t, CoordEntry> coordinated;
  // Per holder, the ids it sent, in its wire order.
  std::vector<std::vector<std::int64_t>> holder_gids(
      static_cast<std::size_t>(nranks));
  for (int src = 0; src < nranks; ++src) {
    const auto& blob = incoming[static_cast<std::size_t>(src)];
    std::size_t pos = 0;
    while (pos < blob.size()) {
      const auto gid = ReadPod<std::int64_t>(blob, pos);
      const auto count = ReadPod<std::int32_t>(blob, pos);
      CoordEntry& entry = coordinated[gid];
      entry.total_copies += count;
      entry.holders.push_back(src);
      holder_gids[static_cast<std::size_t>(src)].push_back(gid);
    }
  }

  // Assign accumulator slots to ids shared between >= 2 ranks.
  std::map<std::int64_t, std::int32_t> slot_of;
  for (const auto& [gid, entry] : coordinated) {
    if (entry.holders.size() >= 2) {
      slot_of[gid] = static_cast<std::int32_t>(num_slots_);
      ++num_slots_;
    }
  }

  // Coordinator receive plan: per holder, the slots in its wire order.
  for (int holder = 0; holder < nranks; ++holder) {
    HolderPlan plan;
    plan.holder = holder;
    for (std::int64_t gid : holder_gids[static_cast<std::size_t>(holder)]) {
      auto it = slot_of.find(gid);
      if (it != slot_of.end()) plan.slot.push_back(it->second);
    }
    if (!plan.slot.empty()) recv_plan_.push_back(std::move(plan));
  }

  // Round 2: reply to each holder, per id in its wire order: uint8 shared
  // flag + int64 total copy count.
  std::vector<std::vector<std::byte>> replies(static_cast<std::size_t>(nranks));
  for (int holder = 0; holder < nranks; ++holder) {
    for (std::int64_t gid : holder_gids[static_cast<std::size_t>(holder)]) {
      const CoordEntry& entry = coordinated.at(gid);
      AppendPod(replies[static_cast<std::size_t>(holder)],
                static_cast<std::uint8_t>(entry.holders.size() >= 2 ? 1 : 0));
      AppendPod(replies[static_cast<std::size_t>(holder)],
                entry.total_copies);
    }
  }
  std::vector<std::vector<std::byte>> verdicts = comm_.AllToAllBytes(replies);

  // Build local groups (ids needing any summation) and the send plan.
  multiplicity_.assign(ndofs_, 1.0);
  for (int coord = 0; coord < nranks; ++coord) {
    const auto& blob = verdicts[static_cast<std::size_t>(coord)];
    std::size_t pos = 0;
    PeerPlan plan;
    plan.peer = coord;
    for (std::size_t w = 0; w < sent_gids[static_cast<std::size_t>(coord)].size();
         ++w) {
      const auto shared = ReadPod<std::uint8_t>(blob, pos);
      const auto total = ReadPod<std::int64_t>(blob, pos);
      const std::vector<std::int32_t>& indices =
          *sent_groups[static_cast<std::size_t>(coord)][w];
      for (std::int32_t idx : indices) {
        multiplicity_[static_cast<std::size_t>(idx)] =
            static_cast<double>(total);
      }
      if (shared) {
        groups_.push_back(indices);
        plan.group_index.push_back(static_cast<std::int32_t>(groups_.size()) - 1);
      } else if (indices.size() >= 2) {
        groups_.push_back(indices);
      }
    }
    if (pos != blob.size()) {
      throw std::runtime_error("sem: gather-scatter verdict trailing bytes");
    }
    if (!plan.group_index.empty()) send_plan_.push_back(std::move(plan));
  }
}

void GatherScatter::Sum(std::span<double> values) const {
  if (values.size() != ndofs_) {
    throw std::invalid_argument("sem: GatherScatter::Sum size mismatch");
  }

  // Local phase: every group's copies become the local sum.
  std::vector<double> local_sum(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    double sum = 0.0;
    for (std::int32_t idx : groups_[g]) {
      sum += values[static_cast<std::size_t>(idx)];
    }
    local_sum[g] = sum;
    for (std::int32_t idx : groups_[g]) {
      values[static_cast<std::size_t>(idx)] = sum;
    }
  }

  // Ship local sums of shared ids to their coordinators.
  for (const PeerPlan& plan : send_plan_) {
    std::vector<double> payload(plan.group_index.size());
    for (std::size_t w = 0; w < plan.group_index.size(); ++w) {
      payload[w] = local_sum[static_cast<std::size_t>(plan.group_index[w])];
    }
    comm_.Send<double>(plan.peer, kTagGsData, payload);
  }

  // Coordinator phase: accumulate and return totals.
  std::vector<double> acc(num_slots_, 0.0);
  for (const HolderPlan& plan : recv_plan_) {
    std::vector<double> payload = comm_.Recv<double>(plan.holder, kTagGsData);
    if (payload.size() != plan.slot.size()) {
      throw std::runtime_error("sem: gather-scatter payload size mismatch");
    }
    for (std::size_t w = 0; w < payload.size(); ++w) {
      acc[static_cast<std::size_t>(plan.slot[w])] += payload[w];
    }
  }
  for (const HolderPlan& plan : recv_plan_) {
    std::vector<double> totals(plan.slot.size());
    for (std::size_t w = 0; w < plan.slot.size(); ++w) {
      totals[w] = acc[static_cast<std::size_t>(plan.slot[w])];
    }
    comm_.Send<double>(plan.holder, kTagGsTotal, totals);
  }

  // Holder phase: overwrite shared groups with global totals.
  for (const PeerPlan& plan : send_plan_) {
    std::vector<double> totals = comm_.Recv<double>(plan.peer, kTagGsTotal);
    if (totals.size() != plan.group_index.size()) {
      throw std::runtime_error("sem: gather-scatter total size mismatch");
    }
    for (std::size_t w = 0; w < plan.group_index.size(); ++w) {
      for (std::int32_t idx :
           groups_[static_cast<std::size_t>(plan.group_index[w])]) {
        values[static_cast<std::size_t>(idx)] = totals[w];
      }
    }
  }
}

void GatherScatter::Average(std::span<double> values) const {
  Sum(values);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] /= multiplicity_[i];
  }
}

}  // namespace sem
