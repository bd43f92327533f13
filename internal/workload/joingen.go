package workload

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// JoinSpec shapes a fact/dimension table pair built to exercise the
// repartition shuffle and the differential harness: the dimension carries
// duplicate join keys (so joins fan out), the fact draws keys from twice
// the dimension keyspace (so outer joins have unmatched rows on both
// sides), and a fraction of fact keys are NULL.
type JoinSpec struct {
	FactName string
	DimName  string

	FactPartitions  int
	FactRowsPerPart int
	DimPartitions   int
	DimRowsPerPart  int

	// Keyspace is the number of distinct dimension join-key values; with
	// more dimension rows than keys, keys repeat and joins multiply rows.
	Keyspace int64
	// NullFraction of fact join keys are NULL (never match anything).
	NullFraction float64

	// PathPrefix places the partitions; fact and dim get subdirectories.
	PathPrefix string
	Seed       int64

	// Specials adds the fact columns x and b (FactJoinSchema), which
	// JoinQueries compares, groups and aggregates.
	Specials bool
}

// DefaultJoinSpec is sized for tests: small enough that a nested-loop
// oracle is instant, large enough that every partition, reducer and join
// branch sees rows.
func DefaultJoinSpec() JoinSpec {
	return JoinSpec{
		FactName:        "orders",
		DimName:         "users",
		FactPartitions:  4,
		FactRowsPerPart: 64,
		DimPartitions:   2,
		DimRowsPerPart:  40,
		Keyspace:        30,
		NullFraction:    0.05,
		PathPrefix:      "/hdfs/join",
		Seed:            424242,
	}
}

// FactJoinSchema is the generated fact table's schema: a row id, a
// nullable join key, a numeric measure, a low-cardinality string and a
// small grouping column; with specials, also a nullable DOUBLE of special
// values (x) and a BIGINT around ±2^53 (b).
func FactJoinSchema(specials bool) *types.Schema {
	fields := []types.Field{
		{Name: "id", Type: types.Int64},
		{Name: "k", Type: types.Int64},
		{Name: "v", Type: types.Int64},
		{Name: "s", Type: types.String},
		{Name: "grp", Type: types.Int64},
	}
	if specials {
		fields = append(fields, types.Field{Name: "x", Type: types.Float64}, types.Field{Name: "b", Type: types.Int64})
	}
	return types.MustSchema(fields...)
}

// factFloats are the fact table's x values, each held by a run of 16 ids,
// so a 64-row partition holds four of them; the first holds NaN, 7, 0.5 and
// -Inf, a block whose min a NaN must be.
// Every finite value is a small multiple of 0.5, so a SUM is exact in any
// order. There is -0 but no +0: the two are equal, and MIN, MAX or a GROUP
// BY key over both may return either, which a bag of rendered rows cannot
// tell from a wrong answer.
var factFloats = []float64{math.NaN(), 7, 0.5, math.Inf(-1), math.Copysign(0, -1), 2, math.Inf(1), -1.5, 2}

// factSpecials returns the x and b of fact row id: b is ±(2^53-2 … 2^53+2),
// where a DOUBLE stops holding every BIGINT, and x is NULL every 11th row.
func factSpecials(id int64) (x, b types.Value) {
	if id%11 != 10 {
		x = types.NewFloat(factFloats[id/16%int64(len(factFloats))])
	}
	b = types.NewInt(1<<53 + id/8%5 - 2)
	if id/32%2 == 1 {
		b.I = -b.I
	}
	return x, b
}

// DimJoinSchema is the generated dimension's schema: a duplicated join
// key, a unique name, a numeric weight and a small category.
func DimJoinSchema() *types.Schema {
	return types.MustSchema(
		types.Field{Name: "k", Type: types.Int64},
		types.Field{Name: "name", Type: types.String},
		types.Field{Name: "w", Type: types.Int64},
		types.Field{Name: "cat", Type: types.Int64},
	)
}

var factStrings = []string{"red", "green", "blue", "cyan", "plum"}

// GenerateJoin writes both tables through the router and returns their
// catalog entries plus the raw rows, so differential tests can hand the
// exact same data to an in-memory oracle.
func GenerateJoin(ctx context.Context, router *storage.Router, spec JoinSpec) (factMeta, dimMeta *plan.TableMeta, factRows, dimRows []types.Row, err error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	factSchema, dimSchema := FactJoinSchema(spec.Specials), DimJoinSchema()

	genFact := func(id int64) types.Row {
		k := types.NullValue()
		if rng.Float64() >= spec.NullFraction {
			k = types.NewInt(rng.Int63n(2 * spec.Keyspace))
		}
		row := types.Row{
			types.NewInt(id),
			k,
			types.NewInt(rng.Int63n(1000)),
			types.NewString(factStrings[rng.Intn(len(factStrings))]),
			types.NewInt(id % 7),
		}
		if !spec.Specials {
			return row
		}
		x, b := factSpecials(id)
		return append(row, x, b)
	}
	genDim := func(i int64) types.Row {
		k := i % spec.Keyspace
		return types.Row{
			types.NewInt(k),
			types.NewString(fmt.Sprintf("d-%04d", i)),
			types.NewInt(rng.Int63n(500)),
			types.NewInt(k % 5),
		}
	}

	write := func(name, prefix string, schema *types.Schema, parts, rowsPer int, gen func(int64) types.Row) (*plan.TableMeta, []types.Row, error) {
		meta := &plan.TableMeta{Name: name, Schema: schema}
		var all []types.Row
		for p := 0; p < parts; p++ {
			w := colstore.NewWriter(schema, 256)
			for r := 0; r < rowsPer; r++ {
				row := gen(int64(p*rowsPer + r))
				all = append(all, row)
				if err := w.Append(row); err != nil {
					return nil, nil, err
				}
			}
			data, err := w.Finish()
			if err != nil {
				return nil, nil, err
			}
			path := fmt.Sprintf("%s/p%04d", prefix, p)
			if err := router.WriteFile(ctx, path, data); err != nil {
				return nil, nil, err
			}
			meta.Partitions = append(meta.Partitions, plan.PartitionMeta{
				Path:  path,
				Rows:  int64(rowsPer),
				Bytes: int64(len(data)),
			})
		}
		return meta, all, nil
	}

	factMeta, factRows, err = write(spec.FactName, spec.PathPrefix+"/fact", factSchema,
		spec.FactPartitions, spec.FactRowsPerPart, genFact)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	dimMeta, dimRows, err = write(spec.DimName, spec.PathPrefix+"/dim", dimSchema,
		spec.DimPartitions, spec.DimRowsPerPart, genDim)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return factMeta, dimMeta, factRows, dimRows, nil
}

var (
	compareOps  = []string{"=", "<>", "<", "<=", ">", ">="}
	floatProbes = []string{"0", "-0.0", "7", "0.5", "2", "5", "-1.5", "100"}
	wideProbes  = []string{"9007199254740992.0", "9007199254740993", "9007199254740993.0", "9007199254740991", "-9007199254740992", "-9007199254740993.0"}
)

// JoinPredicate emits one random predicate over the columns of the pair
// generated with Specials (fact bound as f, dimension as d). Predicates hit both sides,
// mix AND/OR, and include NULL-sensitive atoms and comparisons with the
// special values of f.x and f.b, so three-valued logic and the order of
// values are exercised end to end.
func JoinPredicate(rng *rand.Rand) string {
	atom := func() string {
		switch rng.Intn(11) {
		case 0:
			return fmt.Sprintf("f.v < %d", rng.Intn(1000))
		case 1:
			return fmt.Sprintf("f.v >= %d", rng.Intn(1000))
		case 2:
			return fmt.Sprintf("f.grp = %d", rng.Intn(7))
		case 3:
			return fmt.Sprintf("f.s = '%s'", factStrings[rng.Intn(len(factStrings))])
		case 4:
			return "f.k IS NOT NULL"
		case 5:
			return fmt.Sprintf("d.w > %d", rng.Intn(500))
		case 6:
			return fmt.Sprintf("d.cat = %d", rng.Intn(5))
		case 8, 9:
			return fmt.Sprintf("f.x %s %s", compareOps[rng.Intn(len(compareOps))], floatProbes[rng.Intn(len(floatProbes))])
		case 10:
			return fmt.Sprintf("f.b %s %s", compareOps[rng.Intn(len(compareOps))], wideProbes[rng.Intn(len(wideProbes))])
		default:
			return fmt.Sprintf("f.k < %d", rng.Intn(60))
		}
	}
	switch rng.Intn(3) {
	case 0:
		return atom()
	case 1:
		return "(" + atom() + " AND " + atom() + ")"
	default:
		return "(" + atom() + " OR " + atom() + ")"
	}
}

// joinClause emits the FROM/JOIN section: comma join, JOIN ON, or an
// outer join, with the fact table always first so the engine's probe side
// matches the SQL left side.
func joinClause(rng *rand.Rand, fact, dim string) (from string, comma bool) {
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("FROM %s f, %s d", fact, dim), true
	case 1:
		return fmt.Sprintf("FROM %s f JOIN %s d ON f.k = d.k", fact, dim), false
	case 2:
		return fmt.Sprintf("FROM %s f LEFT OUTER JOIN %s d ON f.k = d.k", fact, dim), false
	default:
		return fmt.Sprintf("FROM %s f RIGHT OUTER JOIN %s d ON f.k = d.k", fact, dim), false
	}
}

// The columns and aggregates JoinQuery draws from.
var (
	joinScalarCols = []string{"f.id", "f.k", "f.v", "f.s", "f.grp", "d.k", "d.name", "d.w", "d.cat", "f.x", "f.b"}
	joinGroupCols  = []string{"f.grp", "f.s", "d.cat", "d.name", "f.x"}
	joinAggs       = []string{"COUNT(*)", "SUM(f.v)", "AVG(f.v)", "MIN(f.v)", "MAX(f.v)", "SUM(d.w)", "MIN(d.w)", "MAX(d.w)", "COUNT(d.k)", "MIN(d.name)",
		"SUM(f.x)", "MIN(f.x)", "MAX(f.x)", "COUNT(f.x)", "MIN(f.b)", "MAX(f.b)", "SUM(f.b)"}
)

// JoinQuery emits one random join/aggregate query over the generated
// pair, built with Specials. Every query is deterministic as a bag: ORDER BY always covers all
// selected columns, and LIMIT appears only under such an ORDER BY (tied
// rows are then identical, so any prefix is the same bag).
func JoinQuery(rng *rand.Rand, fact, dim string) string {
	from, comma := joinClause(rng, fact, dim)

	var where []string
	if comma {
		where = append(where, "f.k = d.k")
	}
	if rng.Intn(3) > 0 {
		where = append(where, JoinPredicate(rng))
	}

	var sb strings.Builder
	sb.WriteString("SELECT ")

	var aliases []string
	agg := rng.Intn(2) == 0
	if agg {
		nKeys := rng.Intn(3) // 0 = global aggregate
		keys := pickDistinct(rng, joinGroupCols, nKeys)
		aggs := pickDistinct(rng, joinAggs, 1+rng.Intn(3))
		items := make([]string, 0, len(keys)+len(aggs))
		for i, k := range keys {
			a := fmt.Sprintf("g%d", i)
			items = append(items, k+" AS "+a)
			aliases = append(aliases, a)
		}
		for i, ag := range aggs {
			a := fmt.Sprintf("a%d", i)
			items = append(items, ag+" AS "+a)
			aliases = append(aliases, a)
		}
		sb.WriteString(strings.Join(items, ", "))
		sb.WriteString(" ")
		sb.WriteString(from)
		if len(where) > 0 {
			sb.WriteString(" WHERE " + strings.Join(where, " AND "))
		}
		if len(keys) > 0 {
			sb.WriteString(" GROUP BY " + strings.Join(keys, ", "))
		}
		if len(keys) > 0 && rng.Intn(4) == 0 {
			sb.WriteString(fmt.Sprintf(" HAVING COUNT(*) > %d", rng.Intn(3)))
		}
	} else {
		cols := pickDistinct(rng, joinScalarCols, 2+rng.Intn(3))
		items := make([]string, len(cols))
		for i, c := range cols {
			a := fmt.Sprintf("c%d", i)
			items[i] = c + " AS " + a
			aliases = append(aliases, a)
		}
		sb.WriteString(strings.Join(items, ", "))
		sb.WriteString(" ")
		sb.WriteString(from)
		if len(where) > 0 {
			sb.WriteString(" WHERE " + strings.Join(where, " AND "))
		}
	}

	if rng.Intn(10) < 7 {
		order := make([]string, len(aliases))
		for i, a := range rng.Perm(len(aliases)) {
			order[i] = aliases[a]
			if rng.Intn(2) == 0 {
				order[i] += " DESC"
			}
		}
		sb.WriteString(" ORDER BY " + strings.Join(order, ", "))
		if rng.Intn(2) == 0 {
			sb.WriteString(fmt.Sprintf(" LIMIT %d", 1+rng.Intn(40)))
		}
	}
	return sb.String()
}

// JoinQueries emits n deterministic queries for the differential suite.
func JoinQueries(fact, dim string, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = JoinQuery(rng, fact, dim)
	}
	return out
}

// pickDistinct selects n distinct entries from pool, preserving a random
// order.
func pickDistinct(rng *rand.Rand, pool []string, n int) []string {
	if n > len(pool) {
		n = len(pool)
	}
	perm := rng.Perm(len(pool))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = pool[perm[i]]
	}
	return out
}
