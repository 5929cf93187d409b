#ifndef BELLWETHER_TABLE_OPS_H_
#define BELLWETHER_TABLE_OPS_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace bellwether::table {

/// Implements the extended relational algebra of the paper's Table 1:
/// selection (sigma), group-by aggregation (alpha), duplicate-free projection
/// (pi), and key-foreign-key natural join.

/// Row predicate for Select.
using RowPredicate = std::function<bool(const Table&, size_t row)>;

/// sigma_pred: rows of `input` satisfying `pred`, in input order.
Table Select(const Table& input, const RowPredicate& pred);

/// pi_columns: projection onto the named columns with duplicate elimination
/// (set semantics, as required for the pi_FK rewrite of feature queries).
Result<Table> ProjectDistinct(const Table& input,
                              const std::vector<std::string>& columns);

/// Key-foreign-key natural join: for each row of `fact`, looks up the row of
/// `reference` whose `ref_key` equals the fact row's `fact_fk`. `reference`
/// must have unique keys (primary key). Fact rows with no match or a null FK
/// are dropped (inner join). Output schema: fact columns then the non-key
/// reference columns.
Result<Table> KeyForeignKeyJoin(const Table& fact, const std::string& fact_fk,
                                const Table& reference,
                                const std::string& ref_key);

/// Aggregate functions of the paper (all distributive or algebraic).
enum class AggFn {
  kSum,
  kCount,          // counts non-null values of the argument column
  kCountDistinct,  // distinct non-null values (used by the coverage query)
  kMin,
  kMax,
  kAvg,
};

const char* AggFnToString(AggFn fn);

/// One aggregate output: fn applied to `column`, emitted as `output_name`.
/// kCount/kCountDistinct emit int64; the others emit double.
struct AggSpec {
  AggFn fn;
  std::string column;
  std::string output_name;
};

/// alpha_{group_by, specs}: hash group-by aggregation. With empty group_by,
/// aggregates the whole table into one row (even when the input is empty,
/// matching SQL aggregate semantics: COUNT()=0, SUM()=null, ...).
Result<Table> GroupByAggregate(const Table& input,
                               const std::vector<std::string>& group_by,
                               const std::vector<AggSpec>& specs);

}  // namespace bellwether::table

#endif  // BELLWETHER_TABLE_OPS_H_
