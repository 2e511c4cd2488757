// Package model defines DataBlinder's two conceptual abstraction models
// (paper §3): the data protection tactic model — operations, per-operation
// leakage profiles, and performance metrics — and the data access model —
// per-field protection classes and requested query functionality.
package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Leakage is the five-level leakage taxonomy of Fuller et al. (SoK, IEEE
// S&P 2017) adopted by the paper. Structure is the most secure level;
// Order is the weakest.
type Leakage int

// Leakage levels, ordered from least to most leakage.
const (
	LeakStructure   Leakage = iota + 1 // size of the structure only
	LeakIdentifiers                    // past/future access patterns of identifiers
	LeakPredicates                     // complex query predicate information
	LeakEqualities                     // which objects share a value
	LeakOrder                          // numerical/lexicographic order
)

var leakageNames = map[Leakage]string{
	LeakStructure:   "Structure",
	LeakIdentifiers: "Identifiers",
	LeakPredicates:  "Predicates",
	LeakEqualities:  "Equalities",
	LeakOrder:       "Order",
}

// String returns the taxonomy name of the leakage level.
func (l Leakage) String() string {
	if s, ok := leakageNames[l]; ok {
		return s
	}
	return fmt.Sprintf("Leakage(%d)", int(l))
}

// Valid reports whether l is one of the five taxonomy levels.
func (l Leakage) Valid() bool {
	return l >= LeakStructure && l <= LeakOrder
}

// Class is the data-access-model protection class C1..C5. Each class
// corresponds to its counterpart leakage level: C1 tolerates only
// Structure leakage (most protective); C5 tolerates Order leakage.
type Class int

// Protection classes.
const (
	Class1 Class = iota + 1
	Class2
	Class3
	Class4
	Class5
)

// String renders the class in the paper's "C3" notation.
func (c Class) String() string { return fmt.Sprintf("C%d", int(c)) }

// Valid reports whether c is within C1..C5.
func (c Class) Valid() bool { return c >= Class1 && c <= Class5 }

// Tolerates reports whether a field annotated with class c may employ a
// tactic operation with leakage l. A field's protection level equals the
// tactic with the weakest guarantee (§3.2: "a chain is only as strong as
// its weakest link"), so every attached tactic must individually satisfy
// the ceiling.
func (c Class) Tolerates(l Leakage) bool { return Leakage(c) >= l }

// ClassForLeakage returns the weakest (highest-numbered) class that a
// tactic with leakage l still satisfies — i.e. the class whose ceiling
// equals l.
func ClassForLeakage(l Leakage) Class { return Class(l) }

// ParseClass parses the "C3" notation.
func ParseClass(s string) (Class, error) {
	s = strings.TrimSpace(s)
	if len(s) != 2 || (s[0] != 'C' && s[0] != 'c') || s[1] < '1' || s[1] > '5' {
		return 0, fmt.Errorf("model: invalid protection class %q (want C1..C5)", s)
	}
	return Class(s[1] - '0'), nil
}

// Op identifies a high-level data-access operation from the data access
// model (Fig. 2): CRUD plus the search predicates.
type Op string

// Data-access operations. The short codes (I, EQ, BL, RG) match the
// paper's §5.1 annotation notation.
const (
	OpInsert   Op = "I"  // insert a document
	OpRead     Op = "R"  // retrieve by identifier
	OpUpdate   Op = "U"  // update a document
	OpDelete   Op = "D"  // delete a document
	OpEquality Op = "EQ" // equality search
	OpBoolean  Op = "BL" // boolean search (conjunction/disjunction/negation)
	OpRange    Op = "RG" // range query
)

var opNames = map[Op]string{
	OpInsert:   "Insert",
	OpRead:     "Read",
	OpUpdate:   "Update",
	OpDelete:   "Delete",
	OpEquality: "Equality Search",
	OpBoolean:  "Boolean Search",
	OpRange:    "Range Query",
}

// Name returns the long human-readable operation name.
func (o Op) Name() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return string(o)
}

// Valid reports whether o is a known operation code.
func (o Op) Valid() bool { _, ok := opNames[o]; return ok }

// ParseOp parses an annotation operation code such as "EQ".
func ParseOp(s string) (Op, error) {
	o := Op(strings.ToUpper(strings.TrimSpace(s)))
	if !o.Valid() {
		return "", fmt.Errorf("model: unknown operation %q", s)
	}
	return o, nil
}

// Agg identifies an aggregate function that can be combined with search
// operations (§3.2: sum, average, count, maximum, minimum, ...).
type Agg string

// Aggregate functions.
const (
	AggSum   Agg = "sum"
	AggAvg   Agg = "avg"
	AggCount Agg = "count"
	AggMin   Agg = "min"
	AggMax   Agg = "max"
)

var validAggs = map[Agg]bool{
	AggSum: true, AggAvg: true, AggCount: true, AggMin: true, AggMax: true,
}

// Valid reports whether a is a known aggregate function.
func (a Agg) Valid() bool { return validAggs[a] }

// ParseAgg parses an aggregate annotation such as "avg".
func ParseAgg(s string) (Agg, error) {
	a := Agg(strings.ToLower(strings.TrimSpace(s)))
	if !a.Valid() {
		return "", fmt.Errorf("model: unknown aggregate %q", s)
	}
	return a, nil
}

// FieldType is the declared type of a schema field. Tactics constrain
// which types they can protect (e.g. OPE/Paillier need numeric fields).
type FieldType string

// Field types.
const (
	TypeString FieldType = "string"
	TypeInt    FieldType = "int"
	TypeFloat  FieldType = "float"
	TypeBool   FieldType = "bool"
)

// Valid reports whether t is a known field type.
func (t FieldType) Valid() bool {
	switch t {
	case TypeString, TypeInt, TypeFloat, TypeBool:
		return true
	}
	return false
}

// Numeric reports whether values of this type support range and
// arithmetic-aggregate operations.
func (t FieldType) Numeric() bool { return t == TypeInt || t == TypeFloat }

// OpLeakage describes the leakage profile of a single tactic operation
// (Fig. 1: leakage is reified per operation, not per tactic, because e.g.
// update operations may leak differently from queries).
type OpLeakage struct {
	Op      Op      `json:"op"`
	Leakage Leakage `json:"leakage"`
	// Note documents operation-specific caveats, e.g. "leaks result size"
	// or "forward private: inserts reveal nothing about past queries".
	Note string `json:"note,omitempty"`
}

// PerfMetrics quantifies an operation's cost profile along the three axes
// of Fig. 1: algorithmic complexity, network overhead, and storage
// overhead. Values are descriptive metadata used for tactic comparison and
// Table 2 generation; measured numbers come from the benchmark harness.
type PerfMetrics struct {
	// Complexity is the asymptotic search/update complexity, e.g.
	// "O(n_w)" (result size), "O(log n)", "O(N)" (exhaustive).
	Complexity string `json:"complexity,omitempty"`
	// RoundTrips is the number of gateway<->cloud round trips required.
	RoundTrips int `json:"round_trips,omitempty"`
	// ClientStorage notes gateway-side state, e.g. "counter per keyword".
	ClientStorage string `json:"client_storage,omitempty"`
	// ServerStorageFactor is the approximate cloud storage expansion
	// relative to plaintext (1 means none, 2 means 2x, ...).
	ServerStorageFactor float64 `json:"server_storage_factor,omitempty"`
	// Costs are numeric per-operation cost priors (microseconds) used by
	// the cost-based planner before live measurements exist; once a tactic
	// has observed latencies, the priors only contribute their shape (the
	// PerDoc term extrapolates measured costs to other corpus sizes).
	Costs map[Op]CostPrior `json:"costs,omitempty"`
}

// CostPrior is one operation's a-priori cost model: Fixed microseconds per
// call plus PerDoc microseconds for every stored document the operation
// must touch (ORE's compare-scan query grows linearly with the corpus,
// OPE's sorted-index query does not).
type CostPrior struct {
	// Fixed is the corpus-independent cost in microseconds.
	Fixed float64 `json:"fixed,omitempty"`
	// PerDoc is the additional microseconds per stored document.
	PerDoc float64 `json:"per_doc,omitempty"`
}

// At evaluates the prior at a corpus of n documents, in microseconds.
func (p CostPrior) At(n float64) float64 { return p.Fixed + p.PerDoc*n }

// Zero reports whether the prior carries no information.
func (p CostPrior) Zero() bool { return p.Fixed == 0 && p.PerDoc == 0 }

// Annotation is the per-field data protection annotation of the data
// access model (Fig. 2 / §5.1), e.g. `C3, op [I, EQ, BL], agg [avg]`.
type Annotation struct {
	// Class is the protection ceiling for the field.
	Class Class `json:"class"`
	// Ops are the requested data-access operations.
	Ops []Op `json:"ops"`
	// Aggs are the requested aggregate functions (optional).
	Aggs []Agg `json:"aggs,omitempty"`
	// Tactics optionally pins specific tactic names, overriding adaptive
	// selection (the paper's explicit per-field tactic choice in §5.1).
	Tactics []string `json:"tactics,omitempty"`
}

// HasOp reports whether the annotation requests op.
func (a Annotation) HasOp(op Op) bool {
	for _, o := range a.Ops {
		if o == op {
			return true
		}
	}
	return false
}

// HasAgg reports whether the annotation requests agg.
func (a Annotation) HasAgg(agg Agg) bool {
	for _, g := range a.Aggs {
		if g == agg {
			return true
		}
	}
	return false
}

// Validate checks internal consistency of the annotation.
func (a Annotation) Validate() error {
	if !a.Class.Valid() {
		return fmt.Errorf("model: invalid class %d", int(a.Class))
	}
	if len(a.Ops) == 0 {
		return errors.New("model: annotation requires at least one operation")
	}
	seen := make(map[Op]bool, len(a.Ops))
	for _, o := range a.Ops {
		if !o.Valid() {
			return fmt.Errorf("model: invalid operation %q", string(o))
		}
		if seen[o] {
			return fmt.Errorf("model: duplicate operation %q", string(o))
		}
		seen[o] = true
	}
	for _, g := range a.Aggs {
		if !g.Valid() {
			return fmt.Errorf("model: invalid aggregate %q", string(g))
		}
	}
	return nil
}

// String renders the annotation in the paper's notation.
func (a Annotation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s, op [", a.Class)
	for i, o := range a.Ops {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(string(o))
	}
	sb.WriteString("]")
	if len(a.Aggs) > 0 {
		sb.WriteString(", agg [")
		for i, g := range a.Aggs {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(string(g))
		}
		sb.WriteString("]")
	}
	return sb.String()
}

// ParseAnnotation parses the paper's annotation notation, e.g.
// "C3, op [I, EQ, BL], agg [avg]". Tactic pins may be given as
// "tactic [DET, OPE]".
func ParseAnnotation(s string) (Annotation, error) {
	var ann Annotation
	parts := splitTopLevel(s)
	if len(parts) == 0 {
		return ann, errors.New("model: empty annotation")
	}
	cls, err := ParseClass(parts[0])
	if err != nil {
		return ann, err
	}
	ann.Class = cls
	for _, p := range parts[1:] {
		p = strings.TrimSpace(p)
		switch {
		case strings.HasPrefix(p, "op"):
			items, err := parseBracketList(p, "op")
			if err != nil {
				return ann, err
			}
			for _, it := range items {
				o, err := ParseOp(it)
				if err != nil {
					return ann, err
				}
				ann.Ops = append(ann.Ops, o)
			}
		case strings.HasPrefix(p, "agg"):
			items, err := parseBracketList(p, "agg")
			if err != nil {
				return ann, err
			}
			for _, it := range items {
				g, err := ParseAgg(it)
				if err != nil {
					return ann, err
				}
				ann.Aggs = append(ann.Aggs, g)
			}
		case strings.HasPrefix(p, "tactic"):
			items, err := parseBracketList(p, "tactic")
			if err != nil {
				return ann, err
			}
			ann.Tactics = append(ann.Tactics, items...)
		default:
			return ann, fmt.Errorf("model: unknown annotation clause %q", p)
		}
	}
	if err := ann.Validate(); err != nil {
		return ann, err
	}
	return ann, nil
}

// splitTopLevel splits on commas that are not inside brackets.
func splitTopLevel(s string) []string {
	var parts []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if tail := strings.TrimSpace(s[start:]); tail != "" {
		parts = append(parts, tail)
	}
	return parts
}

func parseBracketList(clause, keyword string) ([]string, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(clause, keyword))
	if !strings.HasPrefix(rest, "[") || !strings.HasSuffix(rest, "]") {
		return nil, fmt.Errorf("model: malformed %s clause %q", keyword, clause)
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(rest, "["), "]")
	var items []string
	for _, it := range strings.Split(inner, ",") {
		it = strings.TrimSpace(it)
		if it != "" {
			items = append(items, it)
		}
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("model: empty %s list", keyword)
	}
	return items, nil
}

// Field is a named, typed, annotated schema field.
type Field struct {
	Name       string     `json:"name"`
	Type       FieldType  `json:"type"`
	Annotation Annotation `json:"annotation"`
	// Sensitive marks whether the field is protected at all; insensitive
	// fields are stored in plaintext inside the (encrypted) document and
	// get no indexes.
	Sensitive bool `json:"sensitive"`
}

// Schema describes one application document type and its protection
// annotations — the artifact managed by the data protection metadata
// subsystem (Fig. 4).
type Schema struct {
	// Name identifies the document collection, e.g. "observation".
	Name   string  `json:"name"`
	Fields []Field `json:"fields"`
}

// Validate checks the schema for structural errors: empty names, duplicate
// fields, invalid annotations, and type/operation mismatches (range and
// arithmetic aggregates require numeric fields).
func (s *Schema) Validate() error {
	if s.Name == "" {
		return errors.New("model: schema name required")
	}
	if len(s.Fields) == 0 {
		return fmt.Errorf("model: schema %q has no fields", s.Name)
	}
	seen := make(map[string]bool, len(s.Fields))
	for _, f := range s.Fields {
		if f.Name == "" {
			return fmt.Errorf("model: schema %q has a field with no name", s.Name)
		}
		if seen[f.Name] {
			return fmt.Errorf("model: schema %q duplicates field %q", s.Name, f.Name)
		}
		seen[f.Name] = true
		if !f.Type.Valid() {
			return fmt.Errorf("model: field %q has invalid type %q", f.Name, string(f.Type))
		}
		if !f.Sensitive {
			continue
		}
		if err := f.Annotation.Validate(); err != nil {
			return fmt.Errorf("model: field %q: %w", f.Name, err)
		}
		if f.Annotation.HasOp(OpRange) && !f.Type.Numeric() {
			return fmt.Errorf("model: field %q requests range queries on non-numeric type %q", f.Name, string(f.Type))
		}
		for _, g := range f.Annotation.Aggs {
			if g != AggCount && !f.Type.Numeric() {
				return fmt.Errorf("model: field %q requests aggregate %q on non-numeric type %q", f.Name, string(g), string(f.Type))
			}
		}
	}
	return nil
}

// Field returns the named field and whether it exists.
func (s *Schema) Field(name string) (Field, bool) {
	for _, f := range s.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// SensitiveFields returns the protected fields in declaration order.
func (s *Schema) SensitiveFields() []Field {
	var out []Field
	for _, f := range s.Fields {
		if f.Sensitive {
			out = append(out, f)
		}
	}
	return out
}

// Document is an application document: a flat field-name → value map plus
// an identifier. Values must be string, int64, float64, or bool to match
// the declared FieldType.
type Document struct {
	ID     string         `json:"id"`
	Fields map[string]any `json:"fields"`
}

// UnmarshalJSON decodes the document with json.Number so integer literals
// survive losslessly: the default decoder's float64 round-trip silently
// corrupts values above 2^53. Plain integer literals that fit int64 decode
// as int64 (accepted by validation for both int and float fields);
// everything else keeps the default decoder's float64 representation.
func (d *Document) UnmarshalJSON(data []byte) error {
	type alias Document // drops the method; avoids recursing into this func
	var a alias
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&a); err != nil {
		return err
	}
	for k, v := range a.Fields {
		nv, err := convertJSONNumbers(v)
		if err != nil {
			return fmt.Errorf("model: field %q: %w", k, err)
		}
		a.Fields[k] = nv
	}
	*d = Document(a)
	return nil
}

// convertJSONNumbers recursively replaces json.Number artifacts: integer
// literals that fit int64 become int64, anything else float64.
func convertJSONNumbers(v any) (any, error) {
	switch t := v.(type) {
	case json.Number:
		s := t.String()
		if !strings.ContainsAny(s, ".eE") {
			if i, err := strconv.ParseInt(s, 10, 64); err == nil {
				return i, nil
			}
		}
		return t.Float64()
	case map[string]any:
		for k, e := range t {
			ne, err := convertJSONNumbers(e)
			if err != nil {
				return nil, err
			}
			t[k] = ne
		}
		return t, nil
	case []any:
		for i, e := range t {
			ne, err := convertJSONNumbers(e)
			if err != nil {
				return nil, err
			}
			t[i] = ne
		}
		return t, nil
	}
	return v, nil
}

// ValidateAgainst checks that the document's fields conform to the schema:
// every document field must be declared, and values must match the
// declared types. Missing fields are permitted (sparse documents).
func (d *Document) ValidateAgainst(s *Schema) error {
	if d.ID == "" {
		return errors.New("model: document requires an id")
	}
	names := make([]string, 0, len(d.Fields))
	for name := range d.Fields {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, ok := s.Field(name)
		if !ok {
			return fmt.Errorf("model: document %s has undeclared field %q", d.ID, name)
		}
		if err := checkValueType(d.Fields[name], f.Type); err != nil {
			return fmt.Errorf("model: document %s field %q: %w", d.ID, name, err)
		}
	}
	return nil
}

func checkValueType(v any, t FieldType) error {
	switch t {
	case TypeString:
		if _, ok := v.(string); !ok {
			return fmt.Errorf("want string, got %T", v)
		}
	case TypeInt:
		switch x := v.(type) {
		case int64, int:
		case float64:
			// JSON decoding yields float64 for every number; accept it
			// for int fields when the value is integral.
			if x != math.Trunc(x) || math.IsInf(x, 0) {
				return fmt.Errorf("want int, got non-integral float %v", x)
			}
		default:
			return fmt.Errorf("want int, got %T", v)
		}
	case TypeFloat:
		switch v.(type) {
		case float64, int64, int:
		default:
			return fmt.Errorf("want float, got %T", v)
		}
	case TypeBool:
		if _, ok := v.(bool); !ok {
			return fmt.Errorf("want bool, got %T", v)
		}
	default:
		return fmt.Errorf("unknown field type %q", string(t))
	}
	return nil
}

// NormalizeNumeric converts any accepted numeric representation to int64
// (for TypeInt) or float64 (for TypeFloat), returning an error for
// non-numeric input. It is used by tactics that index numeric values. A
// float stands for an int only when it is a whole number inside int64's
// range.
func NormalizeNumeric(v any, t FieldType) (int64, float64, error) {
	switch t {
	case TypeInt:
		switch x := v.(type) {
		case int64:
			return x, float64(x), nil
		case int:
			return int64(x), float64(x), nil
		case float64:
			if x == math.Trunc(x) && x >= -(1<<63) && x < 1<<63 {
				return int64(x), x, nil
			}
		}
	case TypeFloat:
		switch x := v.(type) {
		case float64:
			return int64(x), x, nil
		case int64:
			return x, float64(x), nil
		case int:
			return int64(x), float64(x), nil
		}
	}
	return 0, 0, fmt.Errorf("model: value %v (%T) is not numeric for type %q", v, v, string(t))
}

// ValueToString canonicalizes a field value for keyword indexing.
func ValueToString(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case bool:
		if x {
			return "true"
		}
		return "false"
	case int:
		return fmt.Sprintf("%d", x)
	case int64:
		return fmt.Sprintf("%d", x)
	case float64:
		// Trim trailing zeros so 6.30 and 6.3 index identically.
		s := fmt.Sprintf("%g", x)
		return s
	default:
		return fmt.Sprintf("%v", x)
	}
}

// Keyword is the searchable-encryption keyword of one field value,
// "field=value" over the value's canonical string.
func Keyword(field string, value any) string {
	return field + "=" + ValueToString(value)
}

// NumericType is the field type a numeric value is encoded under by the
// tactics that index numbers: the engine passes int64 for int fields and
// float64 for float fields, and raw Go ints may arrive from examples.
func NumericType(v any) (FieldType, error) {
	switch v.(type) {
	case int, int64:
		return TypeInt, nil
	case float64:
		return TypeFloat, nil
	}
	return "", fmt.Errorf("model: value %v (%T) is not numeric", v, v)
}
