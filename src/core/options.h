// Shared parameter types for the spanner construction algorithms.

#pragma once

#include <cstdint>

#include "graph/types.h"
#include "util/check.h"

namespace ftspan {

/// Order in which the greedy algorithms scan the edges of G.
enum class EdgeOrder : std::uint8_t {
  by_weight,       ///< Nondecreasing weight (Algorithm 4; required for weighted
                   ///< correctness, Theorem 10).
  input,           ///< Insertion order of the input graph (valid for unweighted
                   ///< inputs, Algorithm 3's "arbitrary order").
  by_weight_desc,  ///< Nonincreasing weight — deliberately unsound on weighted
                   ///< graphs; exists for the E12 ordering ablation.
  random,          ///< Uniform shuffle (valid for unweighted inputs).
};

/// Parameters of an f-fault-tolerant (2k-1)-spanner construction.
struct SpannerParams {
  std::uint32_t k = 2;  ///< Stretch parameter; the spanner has stretch 2k-1.
  std::uint32_t f = 1;  ///< Number of tolerated faults (f = 0 degenerates to
                        ///< the classic non-fault-tolerant greedy).
  FaultModel model = FaultModel::vertex;

  /// Stretch t = 2k - 1.
  [[nodiscard]] std::uint32_t stretch() const noexcept { return 2 * k - 1; }

  /// Throws std::invalid_argument unless k >= 1.
  void validate() const { FTSPAN_REQUIRE(k >= 1, "spanner requires k >= 1"); }
};

}  // namespace ftspan
