// nsm_analyze: the repository's static checker — concurrency invariants,
// the span/metric registry gate, and token-level hygiene rules.
//
//   nsm_analyze [options] [paths...]
//
//     --root DIR         repository root (default: current directory);
//                        display paths and defaults are relative to it
//     --config FILE      shared rule config (default: ROOT/tools/nsm_rules.cfg)
//     --registry FILE    committed registry (default: ROOT/docs/REGISTRY.md)
//     --ranks FILE       committed rank header
//                        (default: ROOT/src/core/lock_ranks.hpp)
//     --check NAME       run one check (repeatable): lock-order,
//                        blocking-under-lock, collective-divergence,
//                        registry, lock-rank, raw-new, json-atomic-write,
//                        include-hygiene.  Default: all of them.
//     --no-gate          skip the committed-artifact comparisons (fixture
//                        runs analyze files that are not the real tree)
//     --dot FILE         write the acquired-before graph as Graphviz DOT
//     --write-registry   regenerate the registry file and exit
//     --write-ranks      regenerate the rank header and exit
//
//   paths: files or directories to analyze (default: ROOT/src)
//
// Exit codes (see EXPERIMENTS.md):
//   0  clean
//   1  findings
//   2  usage or I/O error
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "config.hpp"
#include "lexer.hpp"
#include "model.hpp"

namespace fs = std::filesystem;

namespace {

using nsm_analyze::Analysis;
using nsm_analyze::Config;
using nsm_analyze::FileModel;
using nsm_analyze::Finding;

std::optional<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool WriteFile(const fs::path& path, const std::string& content) {
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

/// Display path: relative to the root when possible, forward slashes.
std::string DisplayPath(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  const fs::path abs_file = fs::weakly_canonical(file, ec);
  const fs::path abs_root = fs::weakly_canonical(root, ec);
  fs::path rel = abs_file.lexically_relative(abs_root);
  if (rel.empty() || rel.native().rfind("..", 0) == 0) rel = file;
  return rel.generic_string();
}

void CollectSources(const fs::path& path, std::vector<fs::path>* out) {
  if (fs::is_directory(path)) {
    std::vector<fs::path> found;
    for (const auto& entry : fs::recursive_directory_iterator(path)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp") found.push_back(entry.path());
    }
    std::sort(found.begin(), found.end());
    out->insert(out->end(), found.begin(), found.end());
  } else {
    out->push_back(path);
  }
}

int Usage(const std::string& error) {
  std::cerr << "nsm_analyze: " << error << " (see the header of main.cpp)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::string config_path;
  std::string registry_path;
  std::string ranks_path;
  std::string dot_path;
  bool write_registry = false;
  bool write_ranks = false;
  bool no_gate = false;
  std::set<std::string> checks;
  std::vector<fs::path> targets;

  const std::set<std::string> known_checks = {
      "lock-order",        "blocking-under-lock", "collective-divergence",
      "registry",          "lock-rank",           "raw-new",
      "json-atomic-write", "include-hygiene"};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--root") {
      const char* v = value();
      if (v == nullptr) return Usage("--root needs a directory");
      root = v;
    } else if (arg == "--config") {
      const char* v = value();
      if (v == nullptr) return Usage("--config needs a file");
      config_path = v;
    } else if (arg == "--registry") {
      const char* v = value();
      if (v == nullptr) return Usage("--registry needs a file");
      registry_path = v;
    } else if (arg == "--ranks") {
      const char* v = value();
      if (v == nullptr) return Usage("--ranks needs a file");
      ranks_path = v;
    } else if (arg == "--dot") {
      const char* v = value();
      if (v == nullptr) return Usage("--dot needs a file");
      dot_path = v;
    } else if (arg == "--check") {
      const char* v = value();
      if (v == nullptr || known_checks.count(v) == 0) {
        std::string names;
        for (const std::string& name : known_checks) {
          names += (names.empty() ? "" : ", ") + name;
        }
        return Usage("--check needs one of " + names);
      }
      checks.insert(v);
    } else if (arg == "--write-registry") {
      write_registry = true;
    } else if (arg == "--write-ranks") {
      write_ranks = true;
    } else if (arg == "--no-gate") {
      no_gate = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage("unknown option: " + arg);
    } else {
      targets.emplace_back(arg);
    }
  }
  if (checks.empty()) checks = known_checks;
  if (config_path.empty()) {
    config_path = (root / "tools" / "nsm_rules.cfg").string();
  }
  if (registry_path.empty()) {
    registry_path = (root / "docs" / "REGISTRY.md").string();
  }
  if (ranks_path.empty()) {
    ranks_path = (root / "src" / "core" / "lock_ranks.hpp").string();
  }
  if (targets.empty()) targets.push_back(root / "src");

  Config config;
  std::string config_error;
  if (!nsm_analyze::LoadConfig(config_path, &config, &config_error)) {
    std::cerr << "nsm_analyze: " << config_error << "\n";
    return 2;
  }

  std::vector<fs::path> sources;
  for (const fs::path& target : targets) {
    if (!fs::exists(target)) {
      std::cerr << "nsm_analyze: no such path: " << target.string() << "\n";
      return 2;
    }
    CollectSources(target, &sources);
  }

  std::vector<FileModel> models;
  models.reserve(sources.size());
  for (const fs::path& source : sources) {
    const std::optional<std::string> text = ReadFile(source);
    if (!text) {
      std::cerr << "nsm_analyze: cannot read: " << source.string() << "\n";
      return 2;
    }
    models.push_back(nsm_analyze::ExtractFile(DisplayPath(source, root),
                                              nsm_analyze::Lex(*text)));
  }

  Analysis analysis(std::move(models), std::move(config));
  std::vector<Finding> findings;

  if (write_registry) {
    if (!WriteFile(registry_path, analysis.GenerateRegistry())) {
      std::cerr << "nsm_analyze: cannot write: " << registry_path << "\n";
      return 2;
    }
    std::cout << "nsm_analyze: wrote " << registry_path << "\n";
  }
  if (write_ranks) {
    const std::string content = analysis.GenerateRanks(&findings);
    if (findings.empty()) {
      if (!WriteFile(ranks_path, content)) {
        std::cerr << "nsm_analyze: cannot write: " << ranks_path << "\n";
        return 2;
      }
      std::cout << "nsm_analyze: wrote " << ranks_path << "\n";
    }
  }
  if (write_registry || write_ranks) {
    for (const Finding& f : findings) {
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
    return findings.empty() ? 0 : 1;
  }

  analysis.CheckLockOrderAndBlocking(checks.count("lock-order") != 0,
                                     checks.count("blocking-under-lock") != 0,
                                     &findings);
  if (checks.count("collective-divergence") != 0) {
    analysis.CheckCollectiveDivergence(&findings);
  }
  if (checks.count("registry") != 0) {
    std::optional<std::string> registry_text;
    if (!no_gate) {
      registry_text = ReadFile(registry_path);
      if (!registry_text) registry_text = std::string();  // -> all missing
    }
    analysis.CheckRegistry(registry_text ? &*registry_text : nullptr,
                           &findings);
  }
  if (checks.count("lock-rank") != 0) {
    std::optional<std::string> ranks_text;
    if (!no_gate) {
      ranks_text = ReadFile(ranks_path);
      if (!ranks_text) ranks_text = std::string();  // -> stale
    }
    analysis.CheckLockRanks(ranks_text ? &*ranks_text : nullptr, &findings);
  }
  analysis.CheckHygiene(checks.count("raw-new") != 0,
                        checks.count("json-atomic-write") != 0,
                        checks.count("include-hygiene") != 0, &findings);

  if (!dot_path.empty() && !WriteFile(dot_path, analysis.GenerateDot())) {
    std::cerr << "nsm_analyze: cannot write: " << dot_path << "\n";
    return 2;
  }

  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  std::cout << "nsm_analyze: " << sources.size() << " files, "
            << findings.size() << " finding(s)\n";
  return findings.empty() ? 0 : 1;
}
