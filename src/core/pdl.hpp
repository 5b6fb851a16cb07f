#pragma once
// Umbrella header for the parity-declustered-layouts library.
//
// Quick start -- pdl::api::Array is the front door (engine-cached layout,
// compiled O(1) mapping, and the online failure/rebuild state machine
// behind one object; all fallible calls return pdl::Status / Result):
//
//   #include "core/pdl.hpp"
//   auto array = pdl::api::Array::create({.num_disks = 15, .stripe_size = 5});
//   if (!array.ok()) { /* array.status().to_string() says why */ }
//   auto where = array->map(/*logical=*/12345);
//   (void)array->fail_disk(3);
//   auto plan = array->plan_rebuild();
//
// Lower layers (engine::Engine for raw plans/builds, layout::CompiledMapper
// for standalone tables) remain available.

#include "algebra/gf.hpp"
#include "algebra/numtheory.hpp"
#include "algebra/product_ring.hpp"
#include "api/array.hpp"
#include "core/declustered_array.hpp"
#include "core/status.hpp"
#include "core/xor_codec.hpp"
#include "design/bounds.hpp"
#include "design/catalog.hpp"
#include "design/complete_design.hpp"
#include "design/reduced_design.hpp"
#include "design/ring_design.hpp"
#include "design/subfield_design.hpp"
#include "engine/engine.hpp"
#include "engine/layout_cache.hpp"
#include "engine/planner.hpp"
#include "flow/parity_assign.hpp"
#include "layout/bibd_layout.hpp"
#include "layout/compiled_mapper.hpp"
#include "layout/disk_removal.hpp"
#include "layout/feasibility.hpp"
#include "layout/mapping.hpp"
#include "layout/metrics.hpp"
#include "layout/migration.hpp"
#include "layout/parallelism.hpp"
#include "layout/raid.hpp"
#include "layout/randomized.hpp"
#include "layout/ring_layout.hpp"
#include "layout/serialize.hpp"
#include "layout/sparing.hpp"
#include "layout/stairway.hpp"
#include "sim/fault_timeline.hpp"
#include "sim/rebuild_scheduler.hpp"
#include "sim/scenario.hpp"
#include "sim/workload.hpp"
