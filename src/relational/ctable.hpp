// Conditional tables (c-tables) — the data model of fauré (§3, Table 2).
//
// A c-table is a relation whose tuples may contain c-variables and carry a
// boolean condition (smt::Formula) over those variables. It represents the
// set of regular relations ("possible worlds") obtained by instantiating
// every c-variable with a constant from its domain and keeping exactly the
// tuples whose condition holds.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "smt/formula.hpp"
#include "value/value.hpp"

namespace faure::rel {

/// A named, typed attribute.
struct Attribute {
  std::string name;
  ValueType type = ValueType::Any;
};

/// Relation schema: name + attributes.
class Schema {
 public:
  Schema() = default;
  Schema(std::string name, std::vector<Attribute> attrs)
      : name_(std::move(name)), attrs_(std::move(attrs)) {
    byName_.reserve(attrs_.size());
    for (size_t i = 0; i < attrs_.size(); ++i) {
      byName_.emplace(attrs_[i].name, i);  // first occurrence wins
    }
  }

  const std::string& name() const { return name_; }
  size_t arity() const { return attrs_.size(); }
  const std::vector<Attribute>& attributes() const { return attrs_; }
  const Attribute& attribute(size_t i) const { return attrs_.at(i); }

  /// Index of the attribute named `name`, or SIZE_MAX.
  size_t indexOf(std::string_view name) const;

  /// A copy with a different relation name (algebra `rename`).
  Schema renamed(std::string newName) const {
    return Schema(std::move(newName), attrs_);
  }

 private:
  // Heterogeneous lookup so indexOf(string_view) never allocates.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::string name_;
  std::vector<Attribute> attrs_;
  std::unordered_map<std::string, size_t, NameHash, std::equal_to<>> byName_;
};

struct Row;

/// A persistent secondary index over one key-column set of a c-table
/// (DESIGN.md §11). Rows whose key columns are all constants are hashed
/// (FNV-1a over the column values, in key order) into buckets of
/// ascending row indices; rows with a c-variable in any key column match
/// every probe and are kept aside in an ascending `wildRows` list. The
/// index is built lazily and extended by watermark: `builtUpTo` is the
/// number of table rows covered, and extending only scans the new
/// suffix — the append-only fixpoint loop pays O(new rows), not
/// O(table) per firing.
///
/// Probes are *candidate* lookups: a bucket may contain hash collisions,
/// so callers must re-check key values (the evaluator's per-position
/// equality atoms do exactly that). Bucket and wild lists stay sorted
/// ascending under every maintenance path, which is what lets the
/// evaluator reproduce its serial enumeration order from an index probe.
class JoinIndex {
 public:
  JoinIndex() = default;
  explicit JoinIndex(std::vector<size_t> keyArgs)
      : keyArgs_(std::move(keyArgs)) {}

  // FNV-1a accumulation over key values — kept in one place so the
  // evaluator's probe hashing and the index's row hashing cannot drift.
  static size_t hashInit() { return 0xcbf29ce484222325ULL; }
  static size_t hashStep(size_t h, const Value& v) {
    return (h ^ v.hash()) * 1099511628211ULL;
  }

  const std::vector<size_t>& keyArgs() const { return keyArgs_; }
  size_t builtUpTo() const { return builtUpTo_; }
  size_t bucketCount() const { return buckets_.size(); }
  size_t indexedRows() const { return indexedRows_; }
  size_t wildCount() const { return wild_.size(); }

  /// Rows hashing to `h` (ascending), or null when the bucket is empty.
  const std::vector<size_t>* bucket(size_t h) const {
    auto it = buckets_.find(h);
    return it == buckets_.end() ? nullptr : &it->second;
  }
  /// Rows with a c-variable in a key column (ascending).
  const std::vector<size_t>& wildRows() const { return wild_; }

  /// Covers rows [builtUpTo, rows.size()) — appends to buckets/wild in
  /// ascending order. Called by CTable::ensureJoinIndex.
  void extend(const std::vector<Row>& rows);

  /// Row-compaction maintenance: `oldToNew[i]` is row i's new index, or
  /// SIZE_MAX when row i was removed (the remap must be monotone over
  /// survivors, which CTable::pruneIf guarantees). Bucket and wild lists
  /// stay ascending; the watermark becomes the survivor count of the
  /// covered prefix.
  void remap(const std::vector<size_t>& oldToNew);

 private:
  std::vector<size_t> keyArgs_;
  std::unordered_map<size_t, std::vector<size_t>> buckets_;
  std::vector<size_t> wild_;
  size_t indexedRows_ = 0;
  size_t builtUpTo_ = 0;
};

/// One conditional tuple: the data part plus its condition.
struct Row {
  std::vector<Value> vals;
  smt::Formula cond;  // defaults to `true` (a regular tuple)

  Row() = default;
  Row(std::vector<Value> v, smt::Formula c)
      : vals(std::move(v)), cond(std::move(c)) {}
};

/// Statistics of one JoinIndex, copied out under the owning table's
/// lock (CTable::joinIndexStats) so a planner can read them while
/// another thread extends the same shared index.
struct JoinIndexStats {
  size_t builtUpTo = 0;
  size_t bucketCount = 0;
  size_t indexedRows = 0;
  size_t wildCount = 0;
};

/// A conditional table.
///
/// Rows with identical data parts are merged on insertion by OR-ing their
/// conditions, so the table is a function {data part} -> condition. Rows
/// whose condition folds to `false` are dropped.
///
/// Copy-on-write (DESIGN.md "Copy-on-write tables and the content
/// stamp"): the schema, rows, data-part table and join-index cache live
/// in one shared body. Copying a table copies a pointer; the first
/// mutation through a table whose body is shared copies the body first,
/// so a write through one copy never shows through another. Distinct
/// CTable objects sharing a body may be read, copied and probed from
/// different threads concurrently; one CTable object is, as before,
/// used by one thread at a time.
class CTable {
 public:
  CTable() = default;
  explicit CTable(Schema schema);

  const Schema& schema() const { return body().schema; }
  const std::vector<Row>& rows() const { return body().rows; }
  size_t size() const { return body().rows.size(); }
  bool empty() const { return body().rows.empty(); }

  /// Process-unique identity of this table's content. Copies carry it;
  /// every mutation that changes the table (insert that changes it,
  /// append, a removing pruneIf/eraseWithData, setCondition, a merging
  /// consolidate) takes a fresh one, and so does every new table. Equal
  /// stamps therefore mean equal schema, rows and conditions — the
  /// reuse key of fl::RelationRenderer (faurelog/textio.hpp).
  uint64_t stamp() const { return body().stamp; }

  /// Inserts (or merges) a conditional tuple. Returns true if the table
  /// changed — a new data part appeared or an existing row's condition
  /// grew (syntactically). Throws EvalError on arity mismatch and
  /// TypeError when a constant value contradicts the attribute type.
  bool insert(std::vector<Value> vals, smt::Formula cond = smt::Formula());

  /// Convenience: inserts a tuple of constants with condition `true`.
  bool insertConcrete(std::vector<Value> vals) {
    return insert(std::move(vals), smt::Formula::top());
  }

  /// Appends a row without merging: the fixed-point evaluator needs
  /// append-only row storage (duplicate data parts denote the OR of their
  /// conditions). Rows with a `false` condition are still skipped.
  /// Returns true if a row was appended.
  bool append(std::vector<Value> vals, smt::Formula cond);

  /// Indices of all rows sharing this exact data part, ascending.
  std::vector<size_t> rowsWithData(const std::vector<Value>& vals) const;

  /// Merges duplicate data parts by OR-ing their conditions (undoes
  /// append-mode duplication). When nothing merges the table is left
  /// untouched (no rebuild, row order preserved, body still shared);
  /// otherwise rows keep first-occurrence order of their data parts.
  void consolidate();

  /// The condition of the data part: OR over all rows carrying it, or
  /// `false` when absent. (Raw identity on c-variables, as in rows().)
  /// A lookup: the data-part table keeps every part's merged condition,
  /// the same node Formula::disj builds over the part's rows.
  smt::Formula conditionOf(const std::vector<Value>& vals) const;

  /// Removes rows whose condition `pred` maps to false (used by the
  /// solver-pruning step). Returns the number of removed rows; a table
  /// that loses none is left untouched.
  size_t pruneIf(const std::function<bool(const Row&)>& pred);

  /// Removes every row with exactly this data part (any condition) —
  /// the retraction primitive of the incremental engine. Returns the
  /// number of removed rows (0 when the data part is absent; row order
  /// of the survivors is preserved). Throws EvalError on arity mismatch.
  size_t eraseWithData(const std::vector<Value>& vals);

  /// Replaces a row's condition in place (index into rows()).
  void setCondition(size_t rowIndex, smt::Formula cond);

  /// Collects all c-variables appearing in data parts or conditions.
  std::vector<CVarId> collectVars() const;

  // ---- persistent join indexes (DESIGN.md §11) ----
  //
  // Secondary indexes are a cache over rows() kept in the shared body:
  // every table sharing a body shares its indexes (the incremental
  // engine's retained tables and every scenario fork probe the indexes
  // the base run built). They are extended lazily by watermark under
  // append/insert, remapped in place under pruneIf / eraseWithData, and
  // dropped by a consolidating rebuild (the merge renumbers rows
  // unpredictably; the next probe rebuilds). A body's index map is
  // guarded by a mutex in the body, so concurrent scenario lanes may
  // build and extend indexes on the tables they share. They never
  // affect relation contents — every accessor is const.

  /// How ensureJoinIndex found the index.
  enum class IndexUpkeep { None, Built, Extended };

  /// The index keyed on `keyArgs` (attribute positions, ascending),
  /// created on first use and extended to cover all current rows.
  /// `upkeep`, when given, reports whether this call built or extended
  /// it. The returned reference is node-stable; once this call returns
  /// it covers every row, and a body's rows never change while it is
  /// shared, so the caller may probe it without the lock.
  const JoinIndex& ensureJoinIndex(const std::vector<size_t>& keyArgs,
                                   IndexUpkeep* upkeep = nullptr) const;

  /// Statistics of the index keyed on `keyArgs` (possibly stale), read
  /// under the body's lock; false when no such index exists. Never
  /// builds; safe for cost estimation from any thread.
  bool joinIndexStats(const std::vector<size_t>& keyArgs,
                      JoinIndexStats& out) const;

  /// Number of distinct key-sets currently indexed.
  size_t joinIndexCount() const;

  /// Appends the paper's multi-line layout to `out`: the schema line,
  /// then one line per row, values then condition.
  void appendTo(std::string& out, const CVarRegistry* reg = nullptr) const;

  /// appendTo into a fresh string.
  std::string toString(const CVarRegistry* reg = nullptr) const;

 private:
  /// Row and part ids in the data-part table; kNoId means none. 32 bits
  /// suffice: a row takes over 40 bytes, so 2^32 of them would need more
  /// than 160 GB.
  static constexpr uint32_t kNoId = UINT32_MAX;

  /// One distinct data part.
  struct Part {
    size_t hash = 0;     // hashValues of the data part
    uint32_t first = 0;  // first and last row carrying it
    uint32_t last = 0;
    uint32_t count = 0;  // rows carrying it
    // The left fold of Formula::disj2 over those rows in row order: the
    // node Formula::disj of the same rows builds (smt/formula.hpp).
    smt::Formula cond;
  };

  /// Everything a copy shares. Copying a Body (the detach) copies the
  /// index cache under the source's lock: other tables sharing the
  /// source may be extending it at that moment.
  struct Body {
    Body() = default;
    Body(const Body& o);
    Body& operator=(const Body&) = delete;

    /// Part id of the data part `vals` (whose hashValues is `h`), or
    /// kNoId when no row carries it.
    uint32_t findPart(const std::vector<Value>& vals, size_t h) const;
    /// Appends a row to part `id` (kNoId: a new part), extending the
    /// part's condition by one disj2.
    void addRow(std::vector<Value> vals, smt::Formula cond, size_t h,
                uint32_t id);
    /// The disj2 fold over part `id`'s rows, in row order.
    smt::Formula fold(uint32_t id) const;
    /// Sets row `r`'s condition and re-folds its part `id`.
    void setRowCondition(uint32_t r, uint32_t id, smt::Formula cond);
    /// Drops the rows `oldToNew` maps to SIZE_MAX (a monotone remap onto
    /// `kept` survivors), renumbers the part table and remaps the join
    /// indexes; only parts that lost some but not all rows are
    /// re-folded.
    void removeRows(const std::vector<size_t>& oldToNew, size_t kept);
    /// Puts part `id` into the first free slot from its hash's home.
    void placeSlot(uint32_t id);
    /// Re-places every part into the smallest power-of-two slot array
    /// (at least 8) that is at most half full.
    void rebuildSlots();

    Schema schema;
    std::vector<Row> rows;
    // The data-part table (DESIGN.md §12 "The data-part table"): one
    // Part per distinct data part, a next-row-of-the-same-part link per
    // row (kNoId ends a chain; chains ascend), and an open-addressing
    // array of part ids (linear probing, kNoId = empty, at most half
    // full). Maintained eagerly by every mutator, never from a const
    // path, so tables sharing the body read it without a lock.
    std::vector<Part> parts;
    std::vector<uint32_t> nextRow;
    std::vector<uint32_t> slots;
    unsigned slotShift = 64;  // slot of hash h: (h * golden) >> slotShift
    uint64_t stamp = 0;
    // Guards joinIndexes: tables sharing this body build and extend it
    // from their own threads.
    mutable std::mutex joinMu;
    // key-column set -> secondary index. Ordered map for deterministic
    // iteration and node stability (an evaluation holds JoinIndex
    // references across a firing while another table sharing this body
    // may create other entries). Mutable: a cache over rows,
    // maintained from const accessors.
    mutable std::map<std::vector<size_t>, JoinIndex> joinIndexes;
  };

  static const Body& emptyBody();

  /// The body for reading; a table without one (default-constructed or
  /// moved-from) reads as the empty, schema-less table.
  const Body& body() const { return body_ ? *body_ : emptyBody(); }
  /// The body for writing: detached from every other table first (copied
  /// when shared), stamped fresh.
  Body& mut();
  void checkRow(const std::vector<Value>& vals) const;

  std::shared_ptr<Body> body_;
};

}  // namespace faure::rel
