// Parallel gather-scatter (direct-stiffness summation), the moral
// equivalent of Nek's gslib.
//
// Spectral elements store duplicate copies of nodes shared between
// neighbouring elements (and across rank boundaries).  GatherScatter::Sum
// replaces every copy of a global node with the sum over all of its copies,
// which assembles the weak-form operators: QQ^T in matrix terms.
//
// The exchange uses a rendezvous scheme that works for arbitrary partitions:
// each global id is coordinated by rank (gid % P).  Setup discovers, for
// every id, which ranks hold it; Sum then ships one double per shared id to
// the coordinator and receives the total back.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "mpimini/comm.hpp"

namespace sem {

class GatherScatter {
 public:
  /// Collective constructor: every rank of `comm` passes its local global-id
  /// array (one id per local dof, duplicates allowed and expected).
  GatherScatter(mpimini::Comm comm, std::span<const std::int64_t> gids);

  /// Collective: in place, set every copy of each global id to the sum over
  /// all copies on all ranks.
  void Sum(std::span<double> values) const;

  /// Collective: like Sum but leaves the value averaged over the copy count
  /// (used to smooth visualization fields).
  void Average(std::span<double> values) const;

  /// Number of local dofs this object was built for.
  [[nodiscard]] std::size_t NumDofs() const { return ndofs_; }

  /// Multiplicity (total copy count over all ranks) per local dof; useful
  /// for computing true global dot products from local arrays.
  [[nodiscard]] const std::vector<double>& Multiplicity() const {
    return multiplicity_;
  }

 private:
  mutable mpimini::Comm comm_;
  std::size_t ndofs_ = 0;

  // Local-only duplicate groups (all copies on this rank): lists of dof
  // indices sharing one id. Includes groups also shared remotely.
  std::vector<std::vector<std::int32_t>> groups_;

  // Remote exchange plan. Shared ids are a subset of groups_, ordered per
  // coordinator rank.
  struct PeerPlan {
    int peer = -1;                          // coordinator rank
    std::vector<std::int32_t> group_index;  // my groups, in wire order
  };
  std::vector<PeerPlan> send_plan_;  // what I ship to each coordinator

  // Coordinator side: per holder rank, positions into acc_ in wire order.
  struct HolderPlan {
    int holder = -1;
    std::vector<std::int32_t> slot;  // index into accumulator array
  };
  std::vector<HolderPlan> recv_plan_;
  std::size_t num_slots_ = 0;  // distinct shared ids I coordinate

  std::vector<double> multiplicity_;
};

}  // namespace sem
