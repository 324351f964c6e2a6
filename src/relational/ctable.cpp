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

}  // namespace

CTable::Body::Body(const Body& o)
    : schema(o.schema), rows(o.rows), index(o.index), stamp(o.stamp) {
  std::lock_guard<std::mutex> lock(o.joinMu);
  joinIndexes = o.joinIndexes;
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
  size_t h = hashValues(vals);
  // Look before writing: an insert that changes nothing must leave a
  // shared body shared (and the stamp alone).
  const Body& b = body();
  auto it = b.index.find(h);
  if (it != b.index.end()) {
    for (size_t idx : it->second) {
      if (b.rows[idx].vals == vals) {
        smt::Formula merged = smt::Formula::disj2(b.rows[idx].cond, cond);
        if (merged == b.rows[idx].cond) return false;
        mut().rows[idx].cond = std::move(merged);
        return true;
      }
    }
  }
  Body& m = mut();
  m.index[h].push_back(m.rows.size());
  m.rows.emplace_back(std::move(vals), std::move(cond));
  return true;
}

bool CTable::append(std::vector<Value> vals, smt::Formula cond) {
  checkRow(vals);
  if (cond.isFalse()) return false;
  size_t h = hashValues(vals);
  Body& m = mut();
  m.index[h].push_back(m.rows.size());
  m.rows.emplace_back(std::move(vals), std::move(cond));
  return true;
}

std::vector<size_t> CTable::rowsWithData(const std::vector<Value>& vals) const {
  const Body& b = body();
  std::vector<size_t> out;
  auto it = b.index.find(hashValues(vals));
  if (it == b.index.end()) return out;
  for (size_t idx : it->second) {
    if (b.rows[idx].vals == vals) out.push_back(idx);
  }
  return out;
}

void CTable::consolidate() {
  // Append-mode duplication is the exception, not the rule: scan the
  // hash index for repeated data parts first and leave the table
  // untouched — row order, body sharing and stamp included — when
  // nothing would merge. A row whose condition was forced to `false`
  // (setCondition) also triggers the rebuild, which drops it,
  // preserving the historical contract.
  const Body& b = body();
  bool rebuild = false;
  for (const auto& row : b.rows) {
    if (row.cond.isFalse()) {
      rebuild = true;
      break;
    }
  }
  for (auto it = b.index.begin(); !rebuild && it != b.index.end(); ++it) {
    const std::vector<size_t>& bucket = it->second;
    for (size_t i = 1; i < bucket.size() && !rebuild; ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (b.rows[bucket[i]].vals == b.rows[bucket[j]].vals) {
          rebuild = true;
          break;
        }
      }
    }
  }
  if (!rebuild) return;

  Body& m = mut();
  CTable merged(m.schema);
  merged.body_->rows.reserve(m.rows.size());
  merged.body_->index.reserve(m.index.size());
  for (auto& row : m.rows) {
    merged.insert(std::move(row.vals), std::move(row.cond));
  }
  // The merge renumbers rows, so the new body starts with no secondary
  // indexes: they are dropped here and rebuilt lazily on next use. The
  // no-rebuild path above keeps them (rows untouched).
  *this = std::move(merged);
}

smt::Formula CTable::conditionOf(const std::vector<Value>& vals) const {
  const Body& b = body();
  auto it = b.index.find(hashValues(vals));
  if (it == b.index.end()) return smt::Formula::bottom();
  std::vector<smt::Formula> conds;
  for (size_t idx : it->second) {
    if (b.rows[idx].vals == vals) conds.push_back(b.rows[idx].cond);
  }
  return smt::Formula::disj(std::move(conds));
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
  size_t removed = b.rows.size() - kept;
  if (removed == 0) return 0;
  Body& m = mut();
  for (size_t i = 0; i < m.rows.size(); ++i) {
    size_t to = oldToNew[i];
    if (to != SIZE_MAX && to != i) m.rows[to] = std::move(m.rows[i]);
  }
  m.rows.erase(m.rows.begin() + static_cast<std::ptrdiff_t>(kept),
               m.rows.end());
  m.index.clear();
  for (size_t i = 0; i < m.rows.size(); ++i) {
    m.index[hashValues(m.rows[i].vals)].push_back(i);
  }
  std::lock_guard<std::mutex> lock(m.joinMu);
  for (auto& [keys, jidx] : m.joinIndexes) jidx.remap(oldToNew);
  return removed;
}

size_t CTable::eraseWithData(const std::vector<Value>& vals) {
  checkRow(vals);
  // The index answers "is it even here" in O(1); only a hit pays the
  // pruneIf scan-and-rebuild.
  if (rowsWithData(vals).empty()) return 0;
  return pruneIf([&](const Row& row) { return row.vals == vals; });
}

void CTable::setCondition(size_t rowIndex, smt::Formula cond) {
  body().rows.at(rowIndex);  // range check before detaching
  mut().rows[rowIndex].cond = std::move(cond);
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
