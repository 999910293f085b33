#pragma once

/// \file registry.hpp
/// The benchmark registry.
///
/// Every DPF benchmark registers a BenchmarkDef describing its group,
/// available code versions (Table 1), data layouts (Tables 2/5),
/// implementation techniques (Table 8), a runner, and the paper's analytic
/// per-iteration count model (Tables 4/6) so tests and bench binaries can
/// compare measured instrumentation against the published formulas.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/comm_log.hpp"
#include "core/metrics.hpp"
#include "core/types.hpp"

namespace dpf {

/// Code versions of Table 1.
enum class Version : std::uint8_t { Basic, Optimized, Library, CMSSL, CDpeac };

[[nodiscard]] constexpr std::string_view to_string(Version v) noexcept {
  switch (v) {
    case Version::Basic: return "basic";
    case Version::Optimized: return "optimized";
    case Version::Library: return "library";
    case Version::CMSSL: return "CMSSL";
    case Version::CDpeac: return "C/DPEAC";
  }
  return "?";
}

/// Local-memory access classes of section 1.5, attribute 7.
enum class LocalAccess : std::uint8_t { NA, Direct, Indirect, Strided };

[[nodiscard]] constexpr std::string_view to_string(LocalAccess a) noexcept {
  switch (a) {
    case LocalAccess::NA: return "N/A";
    case LocalAccess::Direct: return "direct";
    case LocalAccess::Indirect: return "indirect";
    case LocalAccess::Strided: return "strided";
  }
  return "?";
}

/// Benchmark groups (paper sections 2, 3, 4).
enum class Group : std::uint8_t { Communication, LinearAlgebra, Application };

[[nodiscard]] constexpr std::string_view to_string(Group g) noexcept {
  switch (g) {
    case Group::Communication: return "communication";
    case Group::LinearAlgebra: return "linear algebra";
    case Group::Application: return "application";
  }
  return "?";
}

/// Parameters of one benchmark run.
struct RunConfig {
  Version version = Version::Basic;
  std::map<std::string, index_t> params;

  [[nodiscard]] index_t get(const std::string& key, index_t fallback) const {
    const auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
  }

  [[nodiscard]] RunConfig with(const std::string& key, index_t value) const {
    RunConfig c = *this;
    c.params[key] = value;
    return c;
  }
};

/// Outcome of one benchmark run.
struct RunResult {
  Metrics metrics;                          ///< whole-benchmark metrics
  std::map<std::string, Metrics> segments;  ///< per-code-segment metrics
  std::map<std::string, double> checks;     ///< validation values for tests
};

/// The paper's analytic per-main-loop-iteration model (Tables 4 and 6).
struct CountModel {
  double flops_per_iter = 0.0;                ///< FLOP count per iteration
  index_t memory_bytes = 0;                   ///< memory usage in bytes
  std::map<CommPattern, index_t> comm_per_iter;  ///< ops per iteration
  /// Relative tolerance for measured-vs-model FLOP comparisons. Kernels
  /// whose implementation reproduces the paper's count exactly use a tight
  /// bound; kernels where the paper's formula reflects implementation
  /// details we document as deviations (EXPERIMENTS.md) use a looser one.
  double flop_rel_tol = 0.05;
  /// Relative tolerance for measured-vs-model memory comparisons.
  double mem_rel_tol = 0.05;
};

/// Registry entry for one benchmark.
struct BenchmarkDef {
  std::string name;
  Group group = Group::Application;
  std::vector<Version> versions;
  LocalAccess local_access = LocalAccess::NA;
  std::vector<std::string> layouts;  ///< Table 2 / Table 5 layout strings
  std::map<std::string, std::string> techniques;  ///< Table 8 pattern→technique
  std::map<std::string, index_t> default_params;
  std::function<RunResult(const RunConfig&)> run;
  std::function<CountModel(const RunConfig&)> model;  ///< null when N/A
  /// The paper's published per-iteration formulas (Tables 4 and 6),
  /// verbatim, for side-by-side reporting against measured counts.
  std::string paper_flops;
  std::string paper_memory;
  std::string paper_comm;

  [[nodiscard]] bool has_version(Version v) const {
    for (Version w : versions) {
      if (w == v) return true;
    }
    return false;
  }

  /// Runs with default parameters merged under `cfg`.
  [[nodiscard]] RunResult run_with_defaults(RunConfig cfg) const {
    for (const auto& [k, v] : default_params) {
      cfg.params.try_emplace(k, v);
    }
    return run(cfg);
  }

  [[nodiscard]] CountModel model_with_defaults(RunConfig cfg) const {
    for (const auto& [k, v] : default_params) {
      cfg.params.try_emplace(k, v);
    }
    return model(cfg);
  }
};

/// Global registry of the 32 benchmarks.
class Registry {
 public:
  static Registry& instance();

  void add(BenchmarkDef def);

  [[nodiscard]] const BenchmarkDef* find(const std::string& name) const;

  /// Closest registered names to a misspelled `name` (edit distance <= 2,
  /// or substring match), best first, at most `max_results`. Drives the
  /// "did you mean" hints in dpfrun.
  [[nodiscard]] std::vector<std::string> suggest(
      const std::string& name, std::size_t max_results = 3) const;

  [[nodiscard]] std::vector<const BenchmarkDef*> by_group(Group g) const;
  [[nodiscard]] std::vector<const BenchmarkDef*> all() const;
  [[nodiscard]] std::size_t size() const { return defs_.size(); }

 private:
  std::map<std::string, BenchmarkDef> defs_;
};

/// Registers every benchmark in the suite (idempotent). Defined in
/// src/suite/register_all.cpp.
void register_all_benchmarks();

}  // namespace dpf
