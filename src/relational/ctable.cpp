#include "relational/ctable.hpp"

#include <algorithm>
#include <atomic>

#include "util/error.hpp"

namespace faure::rel {

size_t Schema::indexOf(std::string_view name) const {
  auto it = byName_.find(name);
  return it == byName_.end() ? SIZE_MAX : it->second;
}

void JoinIndex::extend(const std::vector<Row>& rows) {
  for (size_t r = builtUpTo_; r < rows.size(); ++r) {
    bool wild = false;
    size_t h = hashInit();
    for (size_t a : keyArgs_) {
      const Value& v = rows[r].vals[a];
      if (v.isCVar()) {
        wild = true;
        break;
      }
      h = hashStep(h, v);
    }
    if (wild) {
      wild_.push_back(r);
    } else {
      buckets_[h].push_back(r);
      ++indexedRows_;
    }
  }
  builtUpTo_ = rows.size();
}

void JoinIndex::remap(const std::vector<size_t>& oldToNew) {
  auto remapList = [&](std::vector<size_t>& list) {
    size_t out = 0;
    for (size_t r : list) {
      size_t nr = r < oldToNew.size() ? oldToNew[r] : SIZE_MAX;
      if (nr != SIZE_MAX) list[out++] = nr;
    }
    list.resize(out);
  };
  indexedRows_ = 0;
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    remapList(it->second);
    if (it->second.empty()) {
      it = buckets_.erase(it);
    } else {
      indexedRows_ += it->second.size();
      ++it;
    }
  }
  remapList(wild_);
  size_t covered = 0;
  for (size_t r = 0; r < builtUpTo_ && r < oldToNew.size(); ++r) {
    covered += oldToNew[r] != SIZE_MAX;
  }
  builtUpTo_ = covered;
}

namespace {

/// Process-unique content stamps.
uint64_t freshStamp() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Fibonacci hashing: the top bits of h times 2^64 / phi pick the slot,
/// so data-part hashes whose low bits repeat still spread.
constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

}  // namespace

CTable::Body::Body(const Body& o)
    : schema(o.schema),
      rows(o.rows),
      parts(o.parts),
      nextRow(o.nextRow),
      slots(o.slots),
      slotShift(o.slotShift),
      stamp(o.stamp) {
  std::lock_guard<std::mutex> lock(o.joinMu);
  joinIndexes = o.joinIndexes;
}

uint32_t CTable::Body::findPart(const std::vector<Value>& vals,
                                size_t h) const {
  if (slots.empty()) return kNoId;
  const size_t mask = slots.size() - 1;
  for (size_t i = (h * kGolden) >> slotShift;; i = (i + 1) & mask) {
    const uint32_t id = slots[i];
    if (id == kNoId) return kNoId;
    const Part& p = parts[id];
    if (p.hash == h && rows[p.first].vals == vals) return id;
  }
}

void CTable::Body::placeSlot(uint32_t id) {
  const size_t mask = slots.size() - 1;
  size_t i = (parts[id].hash * kGolden) >> slotShift;
  while (slots[i] != kNoId) i = (i + 1) & mask;
  slots[i] = id;
}

void CTable::Body::rebuildSlots() {
  size_t capacity = 8;
  while (parts.size() * 2 > capacity) capacity *= 2;
  slots.assign(capacity, kNoId);
  slotShift = 64;
  for (size_t c = capacity; c > 1; c >>= 1) --slotShift;
  for (uint32_t id = 0; id < parts.size(); ++id) placeSlot(id);
}

void CTable::Body::addRow(std::vector<Value> vals, smt::Formula cond,
                          size_t h, uint32_t id) {
  const auto r = static_cast<uint32_t>(rows.size());
  if (id == kNoId) {
    parts.push_back(Part{h, r, r, 1, cond});
    if (parts.size() * 2 > slots.size()) {
      rebuildSlots();
    } else {
      placeSlot(static_cast<uint32_t>(parts.size() - 1));
    }
  } else {
    Part& p = parts[id];
    nextRow[p.last] = r;
    p.last = r;
    ++p.count;
    p.cond = smt::Formula::disj2(p.cond, cond);
  }
  nextRow.push_back(kNoId);
  rows.emplace_back(std::move(vals), std::move(cond));
}

smt::Formula CTable::Body::fold(uint32_t id) const {
  const Part& p = parts[id];
  smt::Formula out = rows[p.first].cond;
  for (uint32_t r = nextRow[p.first]; r != kNoId; r = nextRow[r]) {
    out = smt::Formula::disj2(out, rows[r].cond);
  }
  return out;
}

void CTable::Body::setRowCondition(uint32_t r, uint32_t id,
                                   smt::Formula cond) {
  Row& row = rows[r];
  row.cond = std::move(cond);
  Part& p = parts[id];
  p.cond = p.count == 1 ? row.cond : fold(id);
}

void CTable::Body::removeRows(const std::vector<size_t>& oldToNew,
                              size_t kept) {
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t to = oldToNew[i];
    if (to != SIZE_MAX && to != i) rows[to] = std::move(rows[i]);
  }
  rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(kept), rows.end());
  // Walk every old chain in row order, keeping its survivors: the new
  // chains ascend because the remap is monotone.
  std::vector<uint32_t> next(kept, kNoId);
  std::vector<uint32_t> refold;
  uint32_t out = 0;
  for (size_t id = 0; id < parts.size(); ++id) {
    Part& p = parts[id];
    uint32_t first = kNoId;
    uint32_t last = kNoId;
    uint32_t count = 0;
    for (uint32_t r = p.first; r != kNoId; r = nextRow[r]) {
      const size_t to = oldToNew[r];
      if (to == SIZE_MAX) continue;
      const auto nr = static_cast<uint32_t>(to);
      if (first == kNoId) {
        first = nr;
      } else {
        next[last] = nr;
      }
      last = nr;
      ++count;
    }
    if (count == 0) continue;
    if (count != p.count) refold.push_back(out);
    p.first = first;
    p.last = last;
    p.count = count;
    if (out != id) parts[out] = std::move(p);
    ++out;
  }
  const bool dropped = out != parts.size();
  parts.resize(out);
  nextRow = std::move(next);
  for (uint32_t id : refold) parts[id].cond = fold(id);
  if (dropped) rebuildSlots();
  std::lock_guard<std::mutex> lock(joinMu);
  for (auto& [keys, jidx] : joinIndexes) jidx.remap(oldToNew);
}

const CTable::Body& CTable::emptyBody() {
  static const Body kEmpty;
  return kEmpty;
}

CTable::CTable(Schema schema) : body_(std::make_shared<Body>()) {
  body_->schema = std::move(schema);
  body_->stamp = freshStamp();
}

CTable::Body& CTable::mut() {
  if (body_ == nullptr) {
    body_ = std::make_shared<Body>();
  } else if (body_.use_count() != 1) {
    body_ = std::make_shared<Body>(*body_);
  } else {
    // Sole owner. Another table may have dropped its share an instant
    // ago on another thread; the fence pairs with that release
    // decrement, so its last reads of the body happen before our
    // writes.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  body_->stamp = freshStamp();
  return *body_;
}

const JoinIndex& CTable::ensureJoinIndex(const std::vector<size_t>& keyArgs,
                                         IndexUpkeep* upkeep) const {
  const Body& b = body();
  std::lock_guard<std::mutex> lock(b.joinMu);
  IndexUpkeep what = IndexUpkeep::None;
  auto it = b.joinIndexes.find(keyArgs);
  if (it == b.joinIndexes.end()) {
    it = b.joinIndexes.emplace(keyArgs, JoinIndex(keyArgs)).first;
    what = IndexUpkeep::Built;
  }
  if (it->second.builtUpTo() < b.rows.size()) {
    it->second.extend(b.rows);
    if (what == IndexUpkeep::None) what = IndexUpkeep::Extended;
  }
  if (upkeep != nullptr) *upkeep = what;
  return it->second;
}

bool CTable::joinIndexStats(const std::vector<size_t>& keyArgs,
                            JoinIndexStats& out) const {
  const Body& b = body();
  std::lock_guard<std::mutex> lock(b.joinMu);
  auto it = b.joinIndexes.find(keyArgs);
  if (it == b.joinIndexes.end()) return false;
  const JoinIndex& idx = it->second;
  out = JoinIndexStats{idx.builtUpTo(), idx.bucketCount(), idx.indexedRows(),
                       idx.wildCount()};
  return true;
}

size_t CTable::joinIndexCount() const {
  const Body& b = body();
  std::lock_guard<std::mutex> lock(b.joinMu);
  return b.joinIndexes.size();
}

void CTable::checkRow(const std::vector<Value>& vals) const {
  const Schema& schema = body().schema;
  if (vals.size() != schema.arity()) {
    throw EvalError("arity mismatch inserting into '" + schema.name() +
                    "': got " + std::to_string(vals.size()) + ", want " +
                    std::to_string(schema.arity()));
  }
  for (size_t i = 0; i < vals.size(); ++i) {
    ValueType want = schema.attribute(i).type;
    if (want == ValueType::Any || vals[i].isCVar()) continue;
    if (vals[i].constantType() != want) {
      throw TypeError("attribute '" + schema.attribute(i).name + "' of '" +
                      schema.name() + "' expects " +
                      std::string(typeName(want)) + ", got " +
                      vals[i].toString());
    }
  }
}

bool CTable::insert(std::vector<Value> vals, smt::Formula cond) {
  checkRow(vals);
  if (cond.isFalse()) return false;
  const size_t h = hashValues(vals);
  // Look before writing: an insert that changes nothing must leave a
  // shared body shared (and the stamp alone).
  const uint32_t id = body().findPart(vals, h);
  if (id == kNoId) {
    mut().addRow(std::move(vals), std::move(cond), h, kNoId);
    return true;
  }
  // Merge into the part's first row.
  const uint32_t first = body().parts[id].first;
  const smt::Formula& old = body().rows[first].cond;
  smt::Formula merged = smt::Formula::disj2(old, cond);
  if (merged == old) return false;
  mut().setRowCondition(first, id, std::move(merged));
  return true;
}

bool CTable::append(std::vector<Value> vals, smt::Formula cond) {
  checkRow(vals);
  if (cond.isFalse()) return false;
  const size_t h = hashValues(vals);
  Body& m = mut();
  const uint32_t id = m.findPart(vals, h);
  m.addRow(std::move(vals), std::move(cond), h, id);
  return true;
}

std::vector<size_t> CTable::rowsWithData(const std::vector<Value>& vals) const {
  const Body& b = body();
  std::vector<size_t> out;
  const uint32_t id = b.findPart(vals, hashValues(vals));
  if (id == kNoId) return out;
  out.reserve(b.parts[id].count);
  for (uint32_t r = b.parts[id].first; r != kNoId; r = b.nextRow[r]) {
    out.push_back(r);
  }
  return out;
}

void CTable::consolidate() {
  // Append-mode duplication is the exception, not the rule: when every
  // data part has one row, nothing merges and the table is left
  // untouched — row order, body sharing and stamp included. A row whose
  // condition was forced to `false` (setCondition) also triggers the
  // rebuild, which drops it, preserving the historical contract.
  const Body& b = body();
  if (b.parts.size() == b.rows.size() &&
      std::none_of(b.rows.begin(), b.rows.end(),
                   [](const Row& row) { return row.cond.isFalse(); })) {
    return;
  }

  // Each part lands at its first non-false row with its merged
  // condition — what inserting the rows in order into a fresh table
  // gives — and a part with no such row is dropped.
  Body& m = mut();
  std::vector<uint32_t> leads(m.rows.size(), kNoId);
  for (uint32_t id = 0; id < m.parts.size(); ++id) {
    uint32_t r = m.parts[id].first;
    while (r != kNoId && m.rows[r].cond.isFalse()) r = m.nextRow[r];
    if (r != kNoId) leads[r] = id;
  }
  CTable merged(m.schema);
  Body& nb = *merged.body_;
  nb.rows.reserve(m.parts.size());
  nb.parts.reserve(m.parts.size());
  for (size_t r = 0; r < leads.size(); ++r) {
    if (leads[r] == kNoId) continue;
    Part& p = m.parts[leads[r]];
    const auto nr = static_cast<uint32_t>(nb.rows.size());
    nb.rows.emplace_back(std::move(m.rows[r].vals), p.cond);
    nb.parts.push_back(Part{p.hash, nr, nr, 1, std::move(p.cond)});
  }
  nb.nextRow.assign(nb.rows.size(), kNoId);
  nb.rebuildSlots();
  // The merge renumbers rows, so the new body starts with no secondary
  // indexes: they are dropped here and rebuilt lazily on next use. The
  // no-rebuild path above keeps them (rows untouched).
  *this = std::move(merged);
}

smt::Formula CTable::conditionOf(const std::vector<Value>& vals) const {
  const Body& b = body();
  const uint32_t id = b.findPart(vals, hashValues(vals));
  return id == kNoId ? smt::Formula::bottom() : b.parts[id].cond;
}

size_t CTable::pruneIf(const std::function<bool(const Row&)>& pred) {
  // Decide first, on the (possibly shared) body; only a removal writes.
  // The survivor remap is monotone (row order is preserved), SIZE_MAX
  // marks removal; the secondary indexes are remapped with it.
  const Body& b = body();
  std::vector<size_t> oldToNew(b.rows.size(), SIZE_MAX);
  size_t kept = 0;
  for (size_t i = 0; i < b.rows.size(); ++i) {
    if (!pred(b.rows[i])) oldToNew[i] = kept++;
  }
  const size_t removed = b.rows.size() - kept;
  if (removed == 0) return 0;
  mut().removeRows(oldToNew, kept);
  return removed;
}

size_t CTable::eraseWithData(const std::vector<Value>& vals) {
  checkRow(vals);
  // The part table names the rows to drop; only a hit writes.
  const Body& b = body();
  const uint32_t id = b.findPart(vals, hashValues(vals));
  if (id == kNoId) return 0;
  std::vector<size_t> oldToNew(b.rows.size(), 0);
  for (uint32_t r = b.parts[id].first; r != kNoId; r = b.nextRow[r]) {
    oldToNew[r] = SIZE_MAX;
  }
  size_t kept = 0;
  for (size_t& to : oldToNew) {
    if (to != SIZE_MAX) to = kept++;
  }
  const size_t removed = b.rows.size() - kept;
  mut().removeRows(oldToNew, kept);
  return removed;
}

void CTable::setCondition(size_t rowIndex, smt::Formula cond) {
  const Body& b = body();
  const Row& row = b.rows.at(rowIndex);  // range check before detaching
  const uint32_t id = b.findPart(row.vals, hashValues(row.vals));
  mut().setRowCondition(static_cast<uint32_t>(rowIndex), id,
                        std::move(cond));
}

std::vector<CVarId> CTable::collectVars() const {
  std::vector<CVarId> vars;
  for (const auto& row : rows()) {
    for (const auto& v : row.vals) {
      if (v.isCVar()) vars.push_back(v.asCVar());
    }
    row.cond.collectVars(vars);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

void CTable::appendTo(std::string& out, const CVarRegistry* reg) const {
  const Body& b = body();
  out += b.schema.name();
  out += '(';
  for (size_t i = 0; i < b.schema.arity(); ++i) {
    if (i > 0) out += ", ";
    out += b.schema.attribute(i).name;
  }
  out += ")\n";
  for (const auto& row : b.rows) {
    out += "  ";
    for (size_t i = 0; i < row.vals.size(); ++i) {
      if (i > 0) out += '\t';
      row.vals[i].appendTo(out, reg);
    }
    if (!row.cond.isTrue()) {
      out += "\t| ";
      row.cond.appendTo(out, reg);
    }
    out += '\n';
  }
}

std::string CTable::toString(const CVarRegistry* reg) const {
  std::string out;
  appendTo(out, reg);
  return out;
}

}  // namespace faure::rel
