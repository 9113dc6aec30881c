#include "shapcq/query/decomposition.h"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "shapcq/query/evaluator.h"
#include "shapcq/util/bitset.h"
#include "shapcq/util/check.h"

namespace shapcq {

namespace {

// One atom compiled to interned-id checks: required (position, id) pairs
// for constants (and optionally one fixed variable binding) plus
// repeated-variable position groups. Matching a fact is then a handful of
// integer compares — no Binding map, no Value dispatch.
struct AtomIdMatcher {
  bool impossible = false;  // a required constant was never interned
  std::vector<std::pair<int, ValueId>> required;
  std::vector<std::vector<int>> var_groups;  // positions sharing a variable

  bool Matches(const Database& db, FactId fact) const {
    if (impossible) return false;
    for (const auto& [position, id] : required) {
      if (db.ArgId(fact, position) != id) return false;
    }
    for (const std::vector<int>& group : var_groups) {
      ValueId first = db.ArgId(fact, group[0]);
      for (size_t i = 1; i < group.size(); ++i) {
        if (db.ArgId(fact, group[i]) != first) return false;
      }
    }
    return true;
  }
};

// Compiles `atom`; when `fixed_var` is non-null its positions must equal
// `fixed_id` (the binding x -> a of the hierarchical recursion).
AtomIdMatcher CompileAtom(const Atom& atom, const Database& db,
                          const std::string* fixed_var, ValueId fixed_id) {
  AtomIdMatcher matcher;
  std::unordered_map<std::string, std::vector<int>> positions_of_var;
  for (int i = 0; i < atom.arity(); ++i) {
    const Term& term = atom.terms[static_cast<size_t>(i)];
    if (term.is_constant()) {
      ValueId id = db.pool().Find(term.constant());
      if (id == kNoValueId) {
        matcher.impossible = true;
        return matcher;
      }
      matcher.required.emplace_back(i, id);
    } else if (fixed_var != nullptr && term.variable() == *fixed_var) {
      matcher.required.emplace_back(i, fixed_id);
    } else {
      positions_of_var[term.variable()].push_back(i);
    }
  }
  for (auto& [var, positions] : positions_of_var) {
    if (positions.size() > 1) matcher.var_groups.push_back(positions);
  }
  return matcher;
}

// Matchers for every atom of self-join-free `q`, addressable by the
// RelationId of a fact; entries are -1 for relations not in `q`.
struct QueryIdMatchers {
  std::vector<int> atom_of_relation;  // by RelationId; -1 when absent
  std::vector<AtomIdMatcher> matchers;  // by atom index

  const AtomIdMatcher* ForFact(const Database& db, FactId fact) const {
    RelationId relation = db.fact_relation(fact);
    int atom = atom_of_relation[static_cast<size_t>(relation)];
    return atom < 0 ? nullptr : &matchers[static_cast<size_t>(atom)];
  }
};

QueryIdMatchers CompileQuery(const ConjunctiveQuery& q, const Database& db,
                             const std::string* fixed_var, ValueId fixed_id) {
  SHAPCQ_CHECK(!q.HasSelfJoin());
  QueryIdMatchers out;
  out.atom_of_relation.assign(static_cast<size_t>(db.num_relations()), -1);
  out.matchers.reserve(q.atoms().size());
  for (size_t i = 0; i < q.atoms().size(); ++i) {
    const Atom& atom = q.atoms()[i];
    out.matchers.push_back(CompileAtom(atom, db, fixed_var, fixed_id));
    RelationId relation = db.relation_id(atom.relation);
    if (relation != kNoRelationId) {
      SHAPCQ_CHECK(db.columns().arity(relation) == atom.arity() &&
                   "query atom arity conflicts with relation arity");
      out.atom_of_relation[static_cast<size_t>(relation)] =
          static_cast<int>(i);
    }
  }
  return out;
}

}  // namespace

int FactSubset::CountEndogenous() const {
  int count = 0;
  for (FactId id : facts) {
    if (db->fact(id).endogenous) ++count;
  }
  return count;
}

std::vector<FactId> FactSubset::EndogenousFacts() const {
  std::vector<FactId> out;
  for (FactId id : facts) {
    if (db->fact(id).endogenous) out.push_back(id);
  }
  return out;
}

FactSubset AllFacts(const Database& db) {
  FactSubset subset;
  subset.db = &db;
  subset.facts.reserve(static_cast<size_t>(db.num_live()));
  for (FactId id = 0; id < db.num_facts(); ++id) {
    if (db.live(id)) subset.facts.push_back(id);
  }
  return subset;
}

std::vector<std::string> RootVariables(const ConjunctiveQuery& q) {
  std::vector<std::string> roots;
  int num_atoms = static_cast<int>(q.atoms().size());
  for (const std::string& variable : q.variables()) {
    if (static_cast<int>(q.AtomsContaining(variable).size()) == num_atoms) {
      roots.push_back(variable);
    }
  }
  return roots;
}

std::vector<std::vector<int>> ConnectedComponents(const ConjunctiveQuery& q) {
  int n = static_cast<int>(q.atoms().size());
  // Union-find over atoms.
  std::vector<int> parent(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) parent[static_cast<size_t>(i)] = i;
  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  auto unite = [&](int a, int b) {
    parent[static_cast<size_t>(find(a))] = find(b);
  };
  for (const std::string& variable : q.variables()) {
    std::vector<int> touching = q.AtomsContaining(variable);
    for (size_t i = 1; i < touching.size(); ++i) {
      unite(touching[0], touching[i]);
    }
  }
  std::unordered_map<int, std::vector<int>> groups;
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    int root = find(i);
    if (groups.find(root) == groups.end()) order.push_back(root);
    groups[root].push_back(i);
  }
  std::vector<std::vector<int>> components;
  components.reserve(order.size());
  for (int root : order) components.push_back(std::move(groups[root]));
  return components;
}

bool IsGround(const ConjunctiveQuery& q) { return q.variables().empty(); }

std::vector<Value> CandidateValues(const ConjunctiveQuery& q,
                                   const std::string& x,
                                   const FactSubset& subset) {
  SHAPCQ_CHECK(q.HasVariable(x));
  const Database& db = *subset.db;
  // Group subset facts by relation id once.
  std::vector<std::vector<FactId>> by_relation(
      static_cast<size_t>(db.num_relations()));
  for (FactId id : subset.facts) {
    by_relation[static_cast<size_t>(db.fact_relation(id))].push_back(id);
  }
  // Intersect the interned column values over every (atom, position) where
  // x occurs; Values are materialized (and ordered) only at the end.
  bool first = true;
  std::unordered_set<ValueId> candidates;
  for (const Atom& atom : q.atoms()) {
    std::vector<int> positions = atom.PositionsOf(x);
    if (positions.empty()) continue;
    RelationId relation = db.relation_id(atom.relation);
    for (int position : positions) {
      std::unordered_set<ValueId> column;
      if (relation != kNoRelationId) {
        for (FactId id : by_relation[static_cast<size_t>(relation)]) {
          column.insert(db.ArgId(id, position));
        }
      }
      if (first) {
        candidates = std::move(column);
        first = false;
      } else {
        std::unordered_set<ValueId> intersection;
        for (ValueId id : candidates) {
          if (column.count(id) > 0) intersection.insert(id);
        }
        candidates = std::move(intersection);
      }
      if (candidates.empty()) return {};
    }
  }
  SHAPCQ_CHECK(!first && "variable does not occur in the query body");
  std::vector<Value> out;
  out.reserve(candidates.size());
  for (ValueId id : candidates) out.push_back(db.pool().value(id));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<FactId> FactsConsistentWith(const ConjunctiveQuery& q,
                                        const std::string& x, const Value& a,
                                        const FactSubset& subset) {
  const Database& db = *subset.db;
  ValueId a_id = db.pool().Find(a);
  if (a_id == kNoValueId) return {};  // no fact argument can equal a
  QueryIdMatchers matchers = CompileQuery(q, db, &x, a_id);
  std::vector<FactId> out;
  for (FactId id : subset.facts) {
    const AtomIdMatcher* matcher = matchers.ForFact(db, id);
    if (matcher != nullptr && matcher->Matches(db, id)) out.push_back(id);
  }
  return out;
}

RelevanceSplit SplitRelevant(const ConjunctiveQuery& q,
                             const FactSubset& subset) {
  const Database& db = *subset.db;
  QueryIdMatchers matchers = CompileQuery(q, db, nullptr, kNoValueId);
  RelevanceSplit split;
  split.relevant.db = subset.db;
  for (FactId id : subset.facts) {
    const AtomIdMatcher* matcher = matchers.ForFact(db, id);
    if (matcher != nullptr && matcher->Matches(db, id)) {
      split.relevant.facts.push_back(id);
    } else if (db.fact(id).endogenous) {
      ++split.irrelevant_endogenous;
    } else {
      ++split.irrelevant_exogenous;
    }
  }
  return split;
}

RelevanceSplit SplitRelevantIndexed(const ConjunctiveQuery& q,
                                    const Database& db) {
  QueryIdMatchers matchers = CompileQuery(q, db, nullptr, kNoValueId);
  DenseBitset relevant(static_cast<size_t>(db.num_facts()));
  for (size_t atom_index = 0; atom_index < q.atoms().size(); ++atom_index) {
    const AtomIdMatcher& matcher = matchers.matchers[atom_index];
    if (matcher.impossible) continue;
    RelationId relation = db.relation_id(q.atoms()[atom_index].relation);
    if (relation == kNoRelationId) continue;
    // Candidates: intersection of the posting lists of the constant
    // positions (one galloping pass), or the whole relation when the atom
    // has no constants.
    std::vector<const std::vector<FactId>*> lists;
    for (const auto& [position, id] : matcher.required) {
      lists.push_back(&db.FactsWith(relation, position, id));
    }
    std::vector<FactId> intersected;
    const std::vector<FactId>* candidates;
    if (lists.empty()) {
      candidates = &db.FactsOf(relation);
    } else if (lists.size() == 1) {
      candidates = lists[0];
    } else {
      intersected = IntersectPostings(std::move(lists));
      candidates = &intersected;
    }
    for (FactId id : *candidates) {
      if (!db.live(id)) continue;  // tombstones linger until compaction
      bool consistent = true;
      for (const std::vector<int>& group : matcher.var_groups) {
        ValueId first = db.ArgId(id, group[0]);
        for (size_t i = 1; i < group.size(); ++i) {
          if (db.ArgId(id, group[i]) != first) {
            consistent = false;
            break;
          }
        }
        if (!consistent) break;
      }
      if (consistent) relevant.Set(static_cast<size_t>(id));
    }
  }
  RelevanceSplit split;
  split.relevant.db = &db;
  split.relevant.facts.reserve(relevant.Count());
  int relevant_endogenous = 0;
  relevant.ForEach([&](size_t id) {
    split.relevant.facts.push_back(static_cast<FactId>(id));
    if (db.fact(static_cast<FactId>(id)).endogenous) ++relevant_endogenous;
  });
  split.irrelevant_endogenous = db.num_endogenous() - relevant_endogenous;
  split.irrelevant_exogenous =
      (db.num_live() - db.num_endogenous()) -
      (static_cast<int>(split.relevant.facts.size()) - relevant_endogenous);
  return split;
}

FactSubset FactsOfQueryRelations(const ConjunctiveQuery& q,
                                 const FactSubset& subset) {
  SHAPCQ_CHECK(!q.HasSelfJoin());
  const Database& db = *subset.db;
  std::vector<char> wanted(static_cast<size_t>(db.num_relations()), 0);
  for (const Atom& atom : q.atoms()) {
    RelationId relation = db.relation_id(atom.relation);
    if (relation != kNoRelationId) {
      wanted[static_cast<size_t>(relation)] = 1;
    }
  }
  FactSubset out;
  out.db = subset.db;
  for (FactId id : subset.facts) {
    if (wanted[static_cast<size_t>(db.fact_relation(id))] != 0) {
      out.facts.push_back(id);
    }
  }
  return out;
}

}  // namespace shapcq
