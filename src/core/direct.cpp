#include "core/direct.hpp"

#include <algorithm>
#include <span>

#include "core/certify.hpp"
#include "core/product.hpp"
#include "core/router.hpp"

namespace hj {
namespace {

/// A committed node map: `shape` (sorted axis order) into Q_cube_dim,
/// row-major.
struct TableEntry {
  Shape shape;
  u32 cube_dim;
  std::span<const CubeNode> map;
};

#include "core/tables/open_shapes.inc"
#include "core/tables/direct_tables.inc"

const TableEntry kExtraTables[] = {
    {Shape{15, 17}, 8, kExtra_15_17},
    {Shape{5, 5, 5}, 7, kExtra_5_5_5},
};

/// A family of tables, their embeddings built and congestion-routed once,
/// each with its chain leaf (core/certify.hpp).
class TableSet {
 public:
  explicit TableSet(std::span<const TableEntry> tables) {
    for (const TableEntry& t : tables) {
      shapes_.push_back(t.shape);
      auto emb = std::make_shared<ExplicitEmbedding>(
          Mesh(t.shape), t.cube_dim,
          std::vector<CubeNode>(t.map.begin(), t.map.end()));
      route_minimize_congestion(*emb);
      leaves_.push_back(read_chain_leaf(*emb));
      built_.push_back(std::move(emb));
    }
  }

  [[nodiscard]] const std::vector<Shape>& shapes() const { return shapes_; }

  /// The table embedding matching `shape` up to axis permutation and
  /// length-1 axes, relabelled to `shape`'s axis order.
  [[nodiscard]] std::optional<EmbeddingPtr> find(const Shape& shape) const {
    const Shape key = shape.squeezed().sorted();
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      if (!(shapes_[i] == key)) continue;
      if (shape == key) return built_[i];
      // The table shape is `shape` squeezed and sorted, so the relabel
      // onto `shape` is total.
      return RelabelEmbedding::onto(built_[i], shape);
    }
    return std::nullopt;
  }

  /// The leaf of the built table `emb`, if it is one and has a leaf.
  [[nodiscard]] const ChainLeaf* leaf(const Embedding& emb) const {
    for (std::size_t i = 0; i < built_.size(); ++i)
      if (built_[i].get() == &emb) return leaves_[i] ? &*leaves_[i] : nullptr;
    return nullptr;
  }

 private:
  std::vector<Shape> shapes_;
  std::vector<EmbeddingPtr> built_;
  std::vector<std::optional<ChainLeaf>> leaves_;
};

const TableSet& paper_tables() {
  static const TableSet t(kDirectTables);
  return t;
}

const TableSet& extra_tables() {
  static const TableSet t(kExtraTables);
  return t;
}

/// True iff one of `tables` has `shape`.
bool has_shape(std::span<const TableEntry> tables, const Shape& shape) {
  return std::any_of(tables.begin(), tables.end(),
                     [&](const TableEntry& t) { return t.shape == shape; });
}

}  // namespace

const std::vector<Shape>& direct_table_shapes() {
  return paper_tables().shapes();
}

std::optional<EmbeddingPtr> direct_embedding(const Shape& shape) {
  return paper_tables().find(shape);
}

const std::vector<Shape>& extra_table_shapes() {
  return extra_tables().shapes();
}

std::optional<EmbeddingPtr> extra_embedding(const Shape& shape) {
  return extra_tables().find(shape);
}

const ChainLeaf* table_leaf(const Embedding& emb) {
  // A built table has its table's shape.
  if (!dynamic_cast<const ExplicitEmbedding*>(&emb)) return nullptr;
  const Shape& s = emb.guest().shape();
  if (has_shape(kDirectTables, s))
    if (const ChainLeaf* l = paper_tables().leaf(emb)) return l;
  return has_shape(kExtraTables, s) ? extra_tables().leaf(emb) : nullptr;
}

const std::vector<Shape>& search_table_shapes() {
  static const std::vector<Shape> shapes = [] {
    std::vector<Shape> out;
    for (const TableEntry& t : kSearchTables) out.push_back(t.shape);
    return out;
  }();
  return shapes;
}

std::optional<std::vector<CubeNode>> search_table_map(const Shape& shape) {
  const Shape key = shape.squeezed().sorted();
  for (const TableEntry& t : kSearchTables) {
    if (!(t.shape == key)) continue;
    std::vector<CubeNode> map(t.map.begin(), t.map.end());
    if (shape == key) return map;
    // Permute the committed map into `shape`'s axis order, as the
    // relabel of a table embedding onto `shape` would.
    RelabelEmbedding::onto(std::make_shared<ExplicitEmbedding>(
                               Mesh(key), t.cube_dim, std::move(map)),
                           shape)
        ->map_all(map);
    return map;
  }
  return std::nullopt;
}

}  // namespace hj
