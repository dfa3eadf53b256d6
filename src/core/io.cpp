#include "core/io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_set>

namespace hj::io {
namespace {

bool is_default_route(const Embedding& emb, const MeshEdge& e,
                      const CubePath& path) {
  return path == Hypercube::ecube_path(emb.map(e.a), emb.map(e.b));
}

/// All of `t` as an unsigned decimal: no sign, suffix or overflow.
template <class T>
bool parse_number(std::string_view t, T& v) {
  const char* end = t.data() + t.size();
  const auto [ptr, ec] = std::from_chars(t.data(), end, v);
  return !t.empty() && ec == std::errc{} && ptr == end;
}

/// The whitespace-separated tokens of one line, read front to back.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_(line) {}

  /// The next token; empty once the line is used up.
  std::string_view next() {
    const std::size_t b = rest_.find_first_not_of(" \t\r");
    if (b == std::string_view::npos) return rest_ = {};
    rest_.remove_prefix(b);
    const std::string_view tok = rest_.substr(0, rest_.find_first_of(" \t\r"));
    rest_.remove_prefix(tok.size());
    return tok;
  }

  template <class T>
  bool number(T& v) {
    return parse_number(next(), v);
  }

  [[nodiscard]] bool done() { return next().empty(); }

 private:
  std::string_view rest_;
};

}  // namespace

void write_text(std::ostream& os, const Embedding& emb) {
  const Mesh& guest = emb.guest();
  const Shape& s = guest.shape();
  os << "hjembed 1\n";
  os << "shape";
  for (u32 i = 0; i < s.dims(); ++i) os << ' ' << s[i];
  os << "\nwrap";
  for (u32 i = 0; i < s.dims(); ++i) os << ' ' << (guest.wraps(i) ? 1 : 0);
  os << "\ncube " << emb.host_dim() << "\n";
  os << "map";
  for (MeshIndex i = 0; i < guest.num_nodes(); ++i) os << ' ' << emb.map(i);
  os << "\n";
  guest.for_each_edge([&](const MeshEdge& e) {
    const CubePath p = emb.edge_path(e);
    if (is_default_route(emb, e, p)) return;
    os << "path " << e.a << ' ' << e.axis << ' ' << (e.wrap ? 1 : 0);
    for (CubeNode v : p) os << ' ' << v;
    os << "\n";
  });
  os << "end\n";
}

std::string to_text(const Embedding& emb) {
  std::ostringstream os;
  write_text(os, emb);
  return os.str();
}

// The parser is line-oriented and strict: every line carries exactly its
// declared tokens, numbers are unsigned decimals, a wrap path must belong
// to a wrap edge, and nothing but blank lines may follow `end`. It tracks
// line numbers, so a truncated or torn document (a common torn-write
// artifact the plan store must survive) is rejected with the exact
// position: input ending mid-`path` line or missing the `end` sentinel
// throws std::invalid_argument naming the line, never silently succeeds
// with a partial embedding.
std::shared_ptr<ExplicitEmbedding> read_text(std::istream& is) {
  u32 lineno = 0;
  std::string line;

  auto fail = [&](const std::string& what) -> std::shared_ptr<ExplicitEmbedding> {
    throw std::invalid_argument("hjembed io: line " + std::to_string(lineno) +
                                ": " + what);
  };

  // Advance to the next line with content (blank lines are tolerated).
  // Returns false on end of input, leaving `lineno` just past the last
  // line so truncation errors point at the torn position.
  auto next_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++lineno;
      if (line.find_first_not_of(" \t\r") != std::string::npos) return true;
    }
    ++lineno;
    return false;
  };

  if (!next_line()) return fail("empty input (expected 'hjembed 1' header)");
  {
    Tokens ls(line);
    u32 version = 0;
    if (ls.next() != "hjembed" || !ls.number(version) || version != 1 ||
        !ls.done())
      return fail("bad header");
  }

  if (!next_line()) return fail("truncated input: expected shape");
  SmallVec<u64, 4> extents;
  {
    Tokens ls(line);
    if (ls.next() != "shape") return fail("expected shape");
    for (std::string_view t; !(t = ls.next()).empty();) {
      u64 v = 0;
      if (!parse_number(t, v)) return fail("bad shape extent");
      extents.push_back(v);
    }
  }
  if (extents.empty()) return fail("empty shape");
  // Overflow / resource guard: reject meshes no sane file would hold
  // before allocating the node map (fuzzed headers must throw, not OOM).
  u64 total = 1;
  for (u64 e : extents) {
    if (e == 0) return fail("zero shape extent");
    if (total > (u64{1} << 26) / e) return fail("shape too large");
    total *= e;
  }
  const Shape shape{extents};

  if (!next_line()) return fail("truncated input: expected wrap");
  SmallVec<u8, 4> wrap;
  {
    Tokens ls(line);
    if (ls.next() != "wrap") return fail("expected wrap");
    for (u32 i = 0; i < shape.dims(); ++i) {
      const std::string_view t = ls.next();
      u8 w = 0;
      if (t.empty()) return fail("short wrap line");
      if (!parse_number(t, w) || w > 1)
        return fail("wrap flags must be 0 or 1");
      wrap.push_back(w);
    }
    if (!ls.done()) return fail("extra tokens on wrap line");
  }
  const Mesh guest(shape, wrap);

  if (!next_line()) return fail("truncated input: expected cube");
  u32 cube = 0;
  {
    Tokens ls(line);
    if (ls.next() != "cube" || !ls.number(cube) || !ls.done())
      return fail("expected cube");
  }

  if (!next_line()) return fail("truncated input: expected map");
  std::vector<CubeNode> map(guest.num_nodes());
  {
    Tokens ls(line);
    if (ls.next() != "map") return fail("expected map");
    for (CubeNode& v : map)
      if (!ls.number(v)) return fail("short node map");
    if (!ls.done()) return fail("extra node map entry");
  }

  std::shared_ptr<ExplicitEmbedding> emb;
  try {
    emb = std::make_shared<ExplicitEmbedding>(guest, cube, std::move(map));
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }

  std::unordered_set<u64> seen_paths;
  while (true) {
    if (!next_line()) return fail("missing end marker");
    Tokens ls(line);
    const std::string_view word = ls.next();
    if (word == "end") {
      if (!ls.done()) return fail("extra tokens after end");
      if (next_line()) return fail("content after end");
      return emb;
    }
    if (word != "path")
      return fail("unexpected token '" + std::string(word) + "'");
    MeshIndex a = 0;
    u32 axis = 0;
    u8 wrapped = 0;
    const std::string_view ta = ls.next(), tx = ls.next(), tw = ls.next();
    if (tw.empty())
      return fail("short path header (input truncated mid-path?)");
    if (!parse_number(ta, a) || !parse_number(tx, axis) ||
        !parse_number(tw, wrapped))
      return fail("bad path header");
    if (a >= guest.num_nodes() || axis >= shape.dims() || wrapped > 1)
      return fail("path header out of range");
    if (!seen_paths.insert(a * shape.dims() + axis).second)
      return fail("duplicate path for node " + std::to_string(a) +
                  " axis " + std::to_string(axis));
    CubePath p;
    for (std::string_view t; !(t = ls.next()).empty();) {
      CubeNode v = 0;
      if (!parse_number(t, v)) return fail("bad path node");
      p.push_back(v);
    }
    // Reconstruct the edge this path belongs to.
    const u64 stride = shape.stride(axis);
    const u64 c = (a / stride) % shape[axis];
    MeshIndex b;
    if (wrapped) {
      if (!guest.wraps(axis) || shape[axis] <= 2)
        return fail("wrap path on an axis without wrap edges");
      if (c != shape[axis] - 1) return fail("wrap path from non-border node");
      b = a - (shape[axis] - 1) * stride;
    } else {
      if (c + 1 >= shape[axis]) return fail("path runs off the mesh");
      b = a + stride;
    }
    try {
      emb->set_edge_path(MeshEdge{a, b, axis, wrapped != 0}, std::move(p));
    } catch (const std::invalid_argument& e) {
      return fail(e.what());
    }
  }
}

std::shared_ptr<ExplicitEmbedding> from_text(const std::string& text) {
  std::istringstream is(text);
  return read_text(is);
}

void save(const Embedding& emb, const std::string& file) {
  std::ofstream os(file);
  require(os.good(), "io::save: cannot open '%s' for writing", file.c_str());
  write_text(os, emb);
  require(os.good(), "io::save: write to '%s' failed", file.c_str());
}

std::shared_ptr<ExplicitEmbedding> load(const std::string& file) {
  std::ifstream is(file);
  require(is.good(), "io::load: cannot open '%s'", file.c_str());
  return read_text(is);
}

}  // namespace hj::io
