// Mapping of logical HDC structures onto fixed-size IMC arrays — the
// architectural arithmetic behind Table II and Fig. 7.
//
// A logical matrix with `rows` wordline inputs and `cols` outputs is tiled
// into ceil(rows/R) x ceil(cols/C) arrays of geometry R x C. The paper's
// three accounting metrics:
//
//   * cycles      — compute cycles when a *single physical array* executes
//                   all tiles sequentially (paper: "the number of operations
//                   performed when using a single array");
//   * arrays      — tiles needed to hold the whole structure at once;
//   * utilization — mapped cells / total cells of the occupied arrays.
//
// The partitioning baseline [Karunaratne et al., Nature Electronics 2020]
// reshapes a D x k AM into (D/P) x (kP): fewer, fuller arrays, but every
// query must be streamed through the same arrays P times, so cycles do not
// improve — exactly the pathology Fig. 1-(b) illustrates and MEMHD removes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/imc/imc_array.hpp"

namespace memhd::imc {

/// Logical matrix: `rows` wordline inputs feed `cols` output columns.
struct LogicalShape {
  std::size_t rows = 0;
  std::size_t cols = 0;
};

struct MappingCost {
  std::size_t row_tiles = 0;
  std::size_t col_tiles = 0;
  std::size_t arrays = 0;   // tiles to hold the structure
  std::size_t cycles = 0;   // sequential cycles on one array per inference
  /// Array activations per inference when every tile has its own array
  /// (energy-relevant count; equals cycles for dense and for partitioned
  /// mapping, where each pass drives only the arrays partition_plan lists).
  std::size_t activations = 0;
  double utilization = 0.0;  // mapped cells / occupied-array cells
};

/// Dense mapping of a logical matrix (the Basic method; also MEMHD's, whose
/// shapes are chosen to tile exactly).
MappingCost map_dense(LogicalShape shape, ArrayGeometry geometry);

/// One partition's pass in P-way partitioned search over the reshaped
/// ceil(D/P) x (k * P) layout: the query bits it streams and the arrays it
/// drives.
struct PartitionPass {
  std::size_t dim_begin = 0;  // query bits [dim_begin, dim_end)
  std::size_t dim_end = 0;
  /// Row tiles the segment reaches: ceil((dim_end - dim_begin) / R). A
  /// short tail partition may reach fewer than the layout has.
  std::size_t row_tiles = 0;
  /// Column tiles [col_tile_begin, col_tile_end) that the partition's
  /// k-column group [p * k, (p + 1) * k) intersects.
  std::size_t col_tile_begin = 0;
  std::size_t col_tile_end = 0;
};

/// The tile plan of P-way partitioned search, one pass per partition.
/// PartitionedAm executes exactly this plan and map_partitioned counts it,
/// so the cost model and the functional arrays cannot disagree.
std::vector<PartitionPass> partition_plan(std::size_t dim,
                                          std::size_t num_classes,
                                          std::size_t partitions,
                                          ArrayGeometry geometry);

/// Partitioned mapping of an AM of dimension `dim` x `num_classes` with P
/// partitions: the logical shape becomes ceil(dim/P) x (num_classes * P),
/// held once, and queried in P sequential passes whose cycles are the
/// arrays partition_plan() drives.
MappingCost map_partitioned(std::size_t dim, std::size_t num_classes,
                            std::size_t partitions, ArrayGeometry geometry);

/// One row of Table II: a full model = encoding module (f x D projection)
/// + associative memory.
struct ModelMapping {
  std::string label;       // e.g. "Basic", "Partitioning P=10", "MEMHD"
  LogicalShape em;         // f x D
  MappingCost em_cost;
  LogicalShape am;         // logical AM shape as displayed (e.g. 1024x100)
  MappingCost am_cost;

  std::size_t total_cycles() const { return em_cost.cycles + am_cost.cycles; }
  std::size_t total_arrays() const { return em_cost.arrays + am_cost.arrays; }
};

/// Basic mapping: AM is D x k, unpartitioned.
ModelMapping map_basic_model(std::size_t num_features, std::size_t dim,
                             std::size_t num_classes, ArrayGeometry geometry);

/// Partitioning baseline: AM reshaped with P partitions; EM unchanged.
ModelMapping map_partitioned_model(std::size_t num_features, std::size_t dim,
                                   std::size_t num_classes,
                                   std::size_t partitions,
                                   ArrayGeometry geometry);

/// MEMHD: EM is f x D with D matched to array rows; AM is D x C with C
/// matched to array columns (fully utilized by construction).
ModelMapping map_memhd_model(std::size_t num_features, std::size_t dim,
                             std::size_t columns, ArrayGeometry geometry);

}  // namespace memhd::imc
