#include "src/imc/mapping.hpp"

#include <algorithm>

#include "src/common/assert.hpp"

namespace memhd::imc {

namespace {
std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }
}  // namespace

MappingCost map_dense(LogicalShape shape, ArrayGeometry geometry) {
  MEMHD_EXPECTS(shape.rows > 0 && shape.cols > 0);
  MappingCost cost;
  cost.row_tiles = ceil_div(shape.rows, geometry.rows);
  cost.col_tiles = ceil_div(shape.cols, geometry.cols);
  cost.arrays = cost.row_tiles * cost.col_tiles;
  cost.cycles = cost.arrays;       // one array executes every tile in turn
  cost.activations = cost.arrays;  // or all arrays fire once in parallel
  cost.utilization =
      static_cast<double>(shape.rows * shape.cols) /
      static_cast<double>(cost.arrays * geometry.cells());
  return cost;
}

std::vector<PartitionPass> partition_plan(std::size_t dim,
                                          std::size_t num_classes,
                                          std::size_t partitions,
                                          ArrayGeometry geometry) {
  MEMHD_EXPECTS(dim > 0 && num_classes > 0 && partitions >= 1);
  MEMHD_EXPECTS(partitions <= dim);
  const std::size_t rows_per_partition = ceil_div(dim, partitions);
  std::vector<PartitionPass> plan(partitions);
  for (std::size_t p = 0; p < partitions; ++p) {
    PartitionPass& pass = plan[p];
    pass.dim_begin = std::min(dim, p * rows_per_partition);
    pass.dim_end = std::min(dim, pass.dim_begin + rows_per_partition);
    pass.row_tiles = ceil_div(pass.dim_end - pass.dim_begin, geometry.rows);
    pass.col_tile_begin = p * num_classes / geometry.cols;
    pass.col_tile_end = ceil_div((p + 1) * num_classes, geometry.cols);
  }
  return plan;
}

MappingCost map_partitioned(std::size_t dim, std::size_t num_classes,
                            std::size_t partitions, ArrayGeometry geometry) {
  const auto plan = partition_plan(dim, num_classes, partitions, geometry);
  MappingCost cost = map_dense(
      LogicalShape{ceil_div(dim, partitions), num_classes * partitions},
      geometry);
  // The physical arrays hold all partitions' columns at once, but each
  // query segment needs its own pass through the arrays it reaches (one
  // activation per row tile per intersected column tile): cycles grow
  // with P while the array count does not.
  cost.cycles = 0;
  for (const PartitionPass& pass : plan)
    cost.cycles += pass.row_tiles * (pass.col_tile_end - pass.col_tile_begin);
  cost.activations = cost.cycles;
  return cost;
}

namespace {
ModelMapping make_model(std::string label, std::size_t num_features,
                        std::size_t dim, LogicalShape am_shape,
                        MappingCost am_cost, ArrayGeometry geometry) {
  ModelMapping m;
  m.label = std::move(label);
  m.em = LogicalShape{num_features, dim};
  m.em_cost = map_dense(m.em, geometry);
  m.am = am_shape;
  m.am_cost = am_cost;
  return m;
}
}  // namespace

ModelMapping map_basic_model(std::size_t num_features, std::size_t dim,
                             std::size_t num_classes, ArrayGeometry geometry) {
  const LogicalShape am{dim, num_classes};
  return make_model("Basic", num_features, dim, am, map_dense(am, geometry),
                    geometry);
}

ModelMapping map_partitioned_model(std::size_t num_features, std::size_t dim,
                                   std::size_t num_classes,
                                   std::size_t partitions,
                                   ArrayGeometry geometry) {
  const std::size_t prows = (dim + partitions - 1) / partitions;
  const LogicalShape am{prows, num_classes * partitions};
  return make_model("Partitioning P=" + std::to_string(partitions),
                    num_features, dim, am,
                    map_partitioned(dim, num_classes, partitions, geometry),
                    geometry);
}

ModelMapping map_memhd_model(std::size_t num_features, std::size_t dim,
                             std::size_t columns, ArrayGeometry geometry) {
  const LogicalShape am{dim, columns};
  return make_model("MEMHD", num_features, dim, am, map_dense(am, geometry),
                    geometry);
}

}  // namespace memhd::imc
