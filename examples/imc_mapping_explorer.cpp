// IMC mapping explorer: interactive what-if tool for the Table II
// arithmetic. Given a dataset geometry (features, classes), an HDC model
// shape, and an array geometry, prints cycles / arrays / utilization for
// Basic, Partitioning (a P sweep), and MEMHD mappings.
//
//   $ ./imc_mapping_explorer --features 784 --classes 10 --baseline-dim 10240
//         --memhd-dim 128 --memhd-columns 128 --array-rows 128 --array-cols 128
//
// (one command line, wrapped here).
//
// Useful for sizing a MEMHD deployment against a concrete macro: sweep
// --array-rows/--array-cols to your hardware and read off the shape whose
// AM fits in one cycle.
#include <cstdio>

#include "src/common/cli.hpp"
#include "src/common/csv.hpp"
#include "src/common/table.hpp"
#include "src/imc/cost_model.hpp"
#include "src/imc/mapping.hpp"

int main(int argc, char** argv) {
  using namespace memhd;

  common::CliParser cli(
      "Explore IMC mappings: Basic vs Partitioning vs MEMHD for arbitrary "
      "dataset / model / array geometries (Table II generalized).");
  cli.add_flag("features", "784", "Input features f");
  cli.add_flag("classes", "10", "Classes k");
  cli.add_flag("baseline-dim", "10240", "Baseline hypervector dimension D");
  cli.add_flag("memhd-dim", "128", "MEMHD dimension D");
  cli.add_flag("memhd-columns", "128", "MEMHD AM columns C");
  cli.add_flag("array-rows", "128", "IMC array rows");
  cli.add_flag("array-cols", "128", "IMC array columns");
  cli.add_flag("max-partitions", "16", "Largest partition count to sweep");
  if (!cli.parse(argc, argv)) return 1;

  const auto f = static_cast<std::size_t>(cli.get_int("features"));
  const auto k = static_cast<std::size_t>(cli.get_int("classes"));
  const auto bd = static_cast<std::size_t>(cli.get_int("baseline-dim"));
  const auto md = static_cast<std::size_t>(cli.get_int("memhd-dim"));
  const auto mc = static_cast<std::size_t>(cli.get_int("memhd-columns"));
  const imc::ArrayGeometry geometry{
      static_cast<std::size_t>(cli.get_int("array-rows")),
      static_cast<std::size_t>(cli.get_int("array-cols"))};
  const auto max_p = static_cast<std::size_t>(cli.get_int("max-partitions"));

  std::printf("dataset: f=%zu, k=%zu | baseline D=%zu | MEMHD %zux%zu | "
              "array %zux%zu\n\n",
              f, k, bd, md, mc, geometry.rows, geometry.cols);

  std::vector<imc::ModelMapping> models;
  models.push_back(imc::map_basic_model(f, bd, k, geometry));
  for (std::size_t p = 2; p <= max_p; p *= 2)
    models.push_back(imc::map_partitioned_model(f, bd, k, p, geometry));
  models.push_back(imc::map_memhd_model(f, md, mc, geometry));

  const imc::CostModel cost;
  common::TablePrinter table({"Mapping", "AM shape", "Total cycles",
                              "Total arrays", "AM util",
                              "AM energy/query (pJ)", "Latency (ns)"});
  for (const auto& m : models) {
    table.add_row(
        {m.label, std::to_string(m.am.rows) + "x" + std::to_string(m.am.cols),
         std::to_string(m.total_cycles()), std::to_string(m.total_arrays()),
         common::format_double(100.0 * m.am_cost.utilization, 2) + "%",
         common::format_double(cost.am_energy_pj(m, geometry), 1),
         common::format_double(cost.latency_ns(m.total_cycles()), 1)});
  }
  table.print();

  const auto& memhd = models.back();
  if (memhd.am_cost.cycles == 1) {
    std::printf("\nMEMHD fits the AM in ONE array: one-shot associative "
                "search.\n");
  } else {
    std::printf("\nMEMHD needs %zu cycles for the AM (few-shot). To reach "
                "one-shot, reduce D to %zu or grow the array.\n",
                memhd.am_cost.cycles, geometry.rows);
  }
  return 0;
}
