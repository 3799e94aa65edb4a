#include "storage/database.h"

#include "util/check.h"
#include "util/hash.h"
#include "util/open_hash_map.h"

namespace dyncq {

Database::Database(const Schema& schema) : schema_(schema) {
  relations_.reserve(schema.NumRelations());
  for (const RelationSchema& rs : schema.relations()) {
    relations_.emplace_back(rs.arity);
  }
}

const Relation& Database::relation(RelId id) const {
  DYNCQ_CHECK_MSG(id < relations_.size(), "invalid relation id");
  return relations_[id];
}

Relation& Database::relation(RelId id) {
  DYNCQ_CHECK_MSG(id < relations_.size(), "invalid relation id");
  return relations_[id];
}

bool Database::Apply(const UpdateCmd& cmd) {
  return cmd.kind == UpdateKind::kInsert ? Insert(cmd.rel, cmd.tuple)
                                         : Delete(cmd.rel, cmd.tuple);
}

std::size_t Database::ApplyAll(const UpdateStream& stream) {
  // Count inserts per relation so the hash tables are sized once up
  // front (an upper bound when the stream mixes deletes back in).
  std::vector<std::size_t> inserts(relations_.size(), 0);
  for (const UpdateCmd& cmd : stream) {
    if (cmd.kind == UpdateKind::kInsert && cmd.rel < inserts.size()) {
      ++inserts[cmd.rel];
    }
  }
  for (RelId r = 0; r < inserts.size(); ++r) {
    if (inserts[r] > 0) Reserve(r, inserts[r]);
  }

  std::size_t effective = 0;
  for (const UpdateCmd& cmd : stream) {
    if (Apply(cmd)) ++effective;
  }
  return effective;
}

void Database::Reserve(RelId rel, std::size_t n) {
  Relation& r = relation(rel);
  r.Reserve(r.size() + n);
}

bool Database::Insert(RelId rel, const Tuple& t) {
  return relation(rel).Insert(t);
}

bool Database::Delete(RelId rel, const Tuple& t) {
  return relation(rel).Erase(t);
}

std::size_t Database::NumTuples() const {
  std::size_t n = 0;
  for (const Relation& r : relations_) n += r.size();
  return n;
}

std::size_t Database::SizeD() const {
  std::size_t n = schema_.NumRelations() + ActiveDomainSize();
  for (std::size_t i = 0; i < relations_.size(); ++i) {
    n += relations_[i].arity() * relations_[i].size();
  }
  return n;
}

void Database::Clear() {
  for (Relation& r : relations_) r.Clear();
}

std::size_t Database::ActiveDomainSize() const {
  OpenHashSet<Value, U64Hash> adom;
  for (const Relation& r : relations_) {
    for (const Tuple& t : r) {
      for (Value v : t) adom.Insert(v);
    }
  }
  return adom.size();
}

std::string Database::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < relations_.size(); ++i) {
    if (i > 0) out += "\n";
    out += relations_[i].ToString(schema_.name(static_cast<RelId>(i)));
  }
  return out;
}

}  // namespace dyncq
