// The read cursor under its older name. Engine::Cursor is SnapshotCursor
// (core/pipeline.h): DynamicDocument::MakeCursorAt and
// ReaderView::MakeCursorAt return it as a std::unique_ptr, and code written
// against that name keeps compiling.
#ifndef TREENUM_CORE_ENGINE_H_
#define TREENUM_CORE_ENGINE_H_

#include "core/pipeline.h"

namespace treenum {

struct Engine {
  using Cursor = SnapshotCursor;
};

}  // namespace treenum

#endif  // TREENUM_CORE_ENGINE_H_
