// The analyzer checks over the extracted file models, plus the generators
// for the artifacts the checks gate against:
//
//   lock-order             global acquired-before graph from per-function
//                          guard scopes + one-level callee propagation;
//                          fails on cycles, printing every edge's witness
//   blocking-under-lock    blocking mpimini call / condvar wait reachable
//                          while any guard is live, including guards held
//                          in callers
//   collective-divergence  collective called on one branch of a
//                          rank-conditional without a match on the other
//   registry               span/metric taxonomy + prefix rules + the
//                          docs/REGISTRY.md membership gate
//   lock-rank              generated src/core/lock_ranks.hpp is current,
//                          every core::Mutex carries the right spec
//   raw-new                new/delete expressions outside the files the
//                          config allowlists (core::Buffer owns allocation)
//   json-atomic-write      an ofstream statement naming json: JSON artifacts
//                          go through instrument::AtomicFile (temp + rename)
//   include-hygiene        duplicate includes, and concurrency headers whose
//                          std:: vocabulary the file never uses
//
// Generators: REGISTRY.md, lock_ranks.hpp, and the DOT acquired-before
// graph CI uploads as an artifact.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "config.hpp"
#include "model.hpp"

namespace nsm_analyze {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// One acquired-before edge with the evidence that created it.
struct LockEdge {
  std::string from;
  std::string to;
  std::string witness;  // "file:line (Function)" or "... via callee ..."
};

class Analysis {
 public:
  Analysis(std::vector<FileModel> files, Config config);

  /// Builds the acquired-before graph and runs lock-order +
  /// blocking-under-lock (one walk produces both).
  void CheckLockOrderAndBlocking(bool lock_order, bool blocking,
                                 std::vector<Finding>* findings);
  void CheckCollectiveDivergence(std::vector<Finding>* findings);

  /// Taxonomy + prefix rules, and (when `registry_text` is non-null) the
  /// membership gate against the committed docs/REGISTRY.md.
  void CheckRegistry(const std::string* registry_text,
                     std::vector<Finding>* findings);

  /// Rank-spec validation: the committed lock_ranks.hpp matches what the
  /// analyzer would emit, every acquired core::Mutex has a ranked
  /// declaration, and each declaration names its own lock's constant.
  void CheckLockRanks(const std::string* committed_ranks,
                      std::vector<Finding>* findings);

  /// The token-level rules: raw-new, json-atomic-write, include-hygiene.
  void CheckHygiene(bool raw_new, bool json_write, bool include_hygiene,
                    std::vector<Finding>* findings);

  std::string GenerateRegistry();
  std::string GenerateRanks(std::vector<Finding>* findings);
  std::string GenerateDot();

 private:
  struct Summary;
  void BuildIndex();
  void BuildGraph();  // idempotent
  const Function* Resolve(const std::string& callee,
                          const std::string& caller_file) const;

  std::vector<FileModel> files_;
  Config config_;

  bool graph_built_ = false;
  std::vector<LockEdge> edges_;               // deduped (from, to) pairs
  std::vector<std::string> locks_;            // every lock id seen, sorted
  std::vector<std::string> core_locks_;       // rankable subset, sorted
  std::map<std::string, std::pair<std::string, int>>
      first_acquire_;                         // lock id -> first file:line
  std::vector<Finding> blocking_findings_;    // produced with the graph
};

/// "mpimini/comm::mutex" -> "kMpiminiCommMutex".
std::string RankConstantName(const std::string& lock_id);

/// True iff `name` matches the dotted lowercase `layer.phase` taxonomy.
bool MatchesNameTaxonomy(const std::string& name);

}  // namespace nsm_analyze
