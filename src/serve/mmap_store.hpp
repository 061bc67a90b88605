/// \file
/// The old name of a mapped sketch store. SketchStore::open maps a store
/// file and serves it in place, so the mapped store is a SketchStore; the
/// alias remains only for the ladder benchmark (ladderbench/), its one
/// remaining user.
#pragma once

#include "serve/sketch_store.hpp"

namespace dsketch {

using MmapSketchStore = SketchStore;

}  // namespace dsketch
