package p2psum

import (
	"errors"
	"fmt"
	"io"
	"os"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/fuzzy"
	"p2psum/internal/query"
	"p2psum/internal/saintetiq"
	"p2psum/internal/summarystore"
	"p2psum/internal/wire"
)

// Relational substrate re-exports.
type (
	// Schema is an ordered list of typed attributes.
	Schema = data.Schema
	// Attribute is one column of a schema.
	Attribute = data.Attribute
	// Relation is an in-memory table.
	Relation = data.Relation
	// Record is one tuple.
	Record = data.Record
	// Value is one attribute value.
	Value = data.Value
	// Kind is an attribute type (Numeric or Categorical).
	Kind = data.Kind
)

// Attribute kinds.
const (
	// Numeric attributes are summarized through fuzzy linguistic variables.
	Numeric = data.Numeric
	// Categorical attributes are summarized through crisp vocabularies.
	Categorical = data.Categorical
)

// Fuzzy / background-knowledge re-exports.
type (
	// BK is a Background Knowledge: the descriptor vocabulary of each
	// summarized attribute (paper §3.2.1).
	BK = bk.BK
	// AttrBK is the background knowledge of one attribute.
	AttrBK = bk.AttrBK
	// Descriptor names one linguistic label of one attribute.
	Descriptor = bk.Descriptor
	// Variable is a fuzzy linguistic variable.
	Variable = fuzzy.Variable
	// Term binds a label to a membership function.
	Term = fuzzy.Term
	// Trapezoid is the standard membership function shape.
	Trapezoid = fuzzy.Trapezoid
	// Membership is one graded label.
	Membership = fuzzy.Membership
)

// Summarization re-exports.
type (
	// Tree is a SaintEtiQ summary hierarchy (paper §3.2.2, Definition 2).
	Tree = saintetiq.Tree
	// SummaryNode is one summary of a hierarchy (Definition 1).
	SummaryNode = saintetiq.Node
	// PeerID identifies a peer inside summary peer-extents (Definition 3).
	PeerID = saintetiq.PeerID
	// TreeConfig tunes the conceptual clustering.
	TreeConfig = saintetiq.Config
	// Cell is one populated grid cell (a coarse tuple, Table 2).
	Cell = cells.Cell
	// Measure carries weighted statistics of a numeric attribute.
	Measure = cells.Measure
	// SummaryStore is a global summary behind the storage layer: a single
	// tree or an independently lockable shard set.
	SummaryStore = summarystore.Store
	// StoreAnswer is the merged outcome of a fanned-out store query.
	StoreAnswer = query.StoreAnswer
)

// NewSummaryStore builds a standalone summary store: the paper's single
// tree when shards <= 1, a sharded store (per-shard locks, partitioned by
// top-level BK descriptor or key hash) otherwise.
func NewSummaryStore(b *BK, cfg TreeConfig, shards int) SummaryStore {
	return summarystore.New(b, cfg, shards)
}

// AskStore evaluates a flexible query against a summary store: peer
// localization plus approximate answering, fanned out across the store's
// shards and merged.
func AskStore(st SummaryStore, q Query) (*StoreAnswer, error) {
	return query.AnswerStore(st, q)
}

// Query re-exports (paper §5).
type (
	// Query is a flexible selection query over BK descriptors.
	Query = query.Query
	// Clause is one conjunct: attribute IN {descriptors}.
	Clause = query.Clause
	// Predicate is a raw selection predicate, before reformulation.
	Predicate = query.Predicate
	// Answer is an approximate answer (classes of descriptors, §5.2.2).
	Answer = query.Answer
	// AnswerClass is one aggregation class of an approximate answer: a
	// row of descriptors and measures per attribute, in ascending
	// attribute order (Interpretation.Get, Answers.Get, Measures.Get).
	AnswerClass = query.Class
	// Selection is the set of most-abstract summaries satisfying a query.
	Selection = query.Selection
	// Op is a raw-predicate comparison operator.
	Op = query.Op
)

// Predicate operators.
const (
	Eq      = query.Eq
	Lt      = query.Lt
	Le      = query.Le
	Gt      = query.Gt
	Ge      = query.Ge
	Between = query.Between
	In      = query.In
)

// Taxonomy groups categorical descriptors into SNOMED-like super-concepts
// usable in query predicates.
type Taxonomy = bk.Taxonomy

// MedicalBK returns the paper's Common Background Knowledge for the
// Patient schema: the Figure 2 age partition, the BMI partition, sex, and
// a SNOMED-like disease vocabulary.
func MedicalBK() *BK { return bk.Medical() }

// MedicalTaxonomy returns the SNOMED-like grouping of the disease
// vocabulary (infectious / chronic / nutritional).
func MedicalTaxonomy() *Taxonomy { return bk.MedicalTaxonomy() }

// NewTaxonomy builds a descriptor taxonomy for a categorical attribute.
func NewTaxonomy(attr string, groups map[string][]string) (*Taxonomy, error) {
	return bk.NewTaxonomy(attr, groups)
}

// PaperExampleBK returns the two-attribute (age, bmi) BK of the paper's
// Table 2 walkthrough.
func PaperExampleBK() *BK { return bk.PaperExample() }

// InferBK derives a BK from a relation: uniform fuzzy partitions with
// numericLabels terms for numeric attributes, observed vocabularies for
// categorical ones.
func InferBK(rel *Relation, numericLabels int) (*BK, error) {
	return bk.Infer(rel, numericLabels)
}

// NumericAttr builds the BK entry of a numeric attribute from a linguistic
// variable.
func NumericAttr(v *Variable) *AttrBK { return bk.NumericAttr(v) }

// CategoricalAttr builds the BK entry of a categorical attribute.
func CategoricalAttr(name string, vocabulary []string, synonyms map[string]string) *AttrBK {
	return bk.CategoricalAttr(name, vocabulary, synonyms)
}

// NewBK assembles a BK from attribute entries.
func NewBK(attrs ...*AttrBK) (*BK, error) { return bk.New(attrs...) }

// NewVariable builds a fuzzy linguistic variable.
func NewVariable(name string, terms ...Term) (*Variable, error) {
	return fuzzy.NewVariable(name, terms...)
}

// UniformPartition builds a Ruspini partition of [lo, hi] with the labels.
func UniformPartition(name string, lo, hi float64, labels ...string) (*Variable, error) {
	return fuzzy.UniformPartition(name, lo, hi, labels...)
}

// NewSchema builds a schema.
func NewSchema(attrs ...Attribute) (*Schema, error) { return data.NewSchema(attrs...) }

// NewRelation creates an empty relation.
func NewRelation(name string, schema *Schema) *Relation { return data.NewRelation(name, schema) }

// ReadCSV parses a relation from CSV (id column first).
func ReadCSV(name string, schema *Schema, r io.Reader) (*Relation, error) {
	return data.ReadCSV(name, schema, r)
}

// PatientSchema returns the paper's Patient schema (Table 1).
func PatientSchema() *Schema { return data.PatientSchema() }

// PaperPatients returns the exact three-tuple relation of Table 1.
func PaperPatients() *Relation { return data.PaperPatients() }

// GeneratePatients produces a deterministic synthetic Patient relation.
func GeneratePatients(seed int64, n int) *Relation {
	return data.NewPatientGenerator(seed, nil).Generate("Patient", n)
}

// NumValue wraps a numeric attribute value.
func NumValue(x float64) Value { return data.NumValue(x) }

// StrValue wraps a categorical attribute value.
func StrValue(s string) Value { return data.StrValue(s) }

// DefaultTreeConfig returns the default clustering configuration.
func DefaultTreeConfig() TreeConfig { return saintetiq.DefaultConfig() }

// Summarizer incrementally summarizes records into a hierarchy: the online
// mapping + summarization pipeline of §3.2 integrated at a peer's DBMS.
type Summarizer struct {
	b     *BK
	store *cells.Store
	tree  *Tree
	peer  PeerID
}

// NewSummarizer builds a summarizer for the schema under the BK. peer tags
// every incorporated cell with the owning peer (use 0 for single-database
// use; peer extents then stay trivial).
func NewSummarizer(b *BK, schema *Schema, peer PeerID) (*Summarizer, error) {
	mapper, err := cells.NewMapper(b, schema)
	if err != nil {
		return nil, err
	}
	return &Summarizer{
		b:     b,
		store: cells.NewStore(mapper),
		tree:  saintetiq.New(b, saintetiq.DefaultConfig()),
		peer:  peer,
	}, nil
}

// AddRecord maps one tuple and incorporates its cells (one raw-data pass,
// O(cells) amortized).
func (s *Summarizer) AddRecord(rec Record) error {
	for _, c := range s.store.Mapper().Map(rec) {
		s.store.AddCell(c)
		if err := s.tree.Incorporate(c, s.peer); err != nil {
			return err
		}
	}
	return nil
}

// AddRelation maps and incorporates a whole relation.
func (s *Summarizer) AddRelation(rel *Relation) error {
	for _, rec := range rel.Records() {
		if err := s.AddRecord(rec); err != nil {
			return err
		}
	}
	return nil
}

// Tree returns the summary hierarchy built so far.
func (s *Summarizer) Tree() *Tree { return s.tree }

// CellCount returns the number of populated grid cells (K of §3.2.3).
func (s *Summarizer) CellCount() int { return s.store.Len() }

// BK returns the summarizer's background knowledge.
func (s *Summarizer) BK() *BK { return s.b }

// Summarize builds a summary hierarchy of a relation in one call.
func Summarize(rel *Relation, b *BK, peer PeerID) (*Tree, error) {
	s, err := NewSummarizer(b, rel.Schema(), peer)
	if err != nil {
		return nil, err
	}
	if err := s.AddRelation(rel); err != nil {
		return nil, err
	}
	return s.Tree(), nil
}

// MergeSummaries merges src into dst (Merging(src, dst) of §6.1.1); both
// must share the same BK vocabularies.
func MergeSummaries(dst, src *Tree) error { return dst.Merge(src) }

// Reformulate rewrites raw selection predicates into a flexible query over
// BK descriptors (§5.1). The expansion may add false positives but never
// false negatives.
func Reformulate(b *BK, sel []string, preds []Predicate) (Query, error) {
	return query.Reformulate(b, sel, preds)
}

// ReformulateWithTaxonomy is Reformulate with super-concept expansion:
// categorical operands naming a taxonomy group expand to the group's
// members (disease = infectious → the six infectious diseases).
func ReformulateWithTaxonomy(b *BK, tax *Taxonomy, sel []string, preds []Predicate) (Query, error) {
	return query.ReformulateWithTaxonomy(b, tax, sel, preds)
}

// SummaryQuality aggregates structural and semantic metrics of a
// hierarchy (shape, homogeneity, specificity, root category utility).
type SummaryQuality = saintetiq.Quality

// SelectSummaries returns ZQ: the most abstract summaries of the hierarchy
// satisfying the query (§5.2).
func SelectSummaries(t *Tree, q Query) (*Selection, error) { return query.Select(t, q) }

// Localize returns the peers whose data is relevant to the query (peer
// localization, §5.2.1).
func Localize(t *Tree, q Query) ([]PeerID, error) {
	sel, err := query.Select(t, q)
	if err != nil {
		return nil, err
	}
	return sel.Peers(), nil
}

// AskApproximate answers the query entirely in the summary domain
// (§5.2.2): no original record is accessed.
func AskApproximate(t *Tree, q Query) (*Answer, error) {
	sel, err := query.Select(t, q)
	if err != nil {
		return nil, err
	}
	return query.Approximate(t, q, sel)
}

// MatchRecord reports whether a raw record satisfies the flexible query
// under the BK (ground truth for accuracy accounting).
func MatchRecord(b *BK, rel *Relation, rec Record, q Query) bool {
	return query.MatchRecord(b, rel, rec, q)
}

// GradedSummary pairs a selected summary with its fuzzy satisfaction
// degree (FQAS'04 valuation).
type GradedSummary = query.GradedSummary

// TopKSummaries returns the k best-satisfying summaries for the query,
// ranked by satisfaction degree then weight.
func TopKSummaries(t *Tree, q Query, k int) ([]GradedSummary, error) {
	return query.TopK(t, q, k)
}

// RankClasses orders an approximate answer's classes by decreasing weight
// (dominant interpretation first).
func RankClasses(a *Answer) []AnswerClass { return query.RankClasses(a) }

// EncodeSummary serializes a hierarchy for shipping or persistence, in the
// wire encoding the protocol messages carry.
func EncodeSummary(t *Tree) ([]byte, error) {
	e := wire.GetEnc()
	defer e.Release()
	t.AppendWire(e)
	return append([]byte(nil), e.Bytes()...), nil
}

// DecodeSummary reconstructs a serialized hierarchy; trailing bytes are an
// error.
func DecodeSummary(b []byte) (*Tree, error) {
	d := wire.NewDec(b)
	t, err := saintetiq.DecodeWire(d)
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return t, nil
}

// SaveSummary writes a hierarchy to a file.
func SaveSummary(t *Tree, path string) error {
	blob, err := EncodeSummary(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// LoadSummary reads a hierarchy saved by SaveSummary.
func LoadSummary(path string) (*Tree, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSummary(blob)
}

// EstimateCount estimates how many records satisfy the query, straight
// from the summary weights (no data access). Under Ruspini partitions the
// estimate is exact at the descriptor level; versus raw predicates it can
// only over-count (the §5.1 no-false-negatives guarantee).
func EstimateCount(t *Tree, q Query) (float64, error) {
	sel, err := query.Select(t, q)
	if err != nil {
		return 0, err
	}
	return sel.Weight(), nil
}

// errNotBuilt guards simulation accessors used before Construct.
var errNotBuilt = errors.New("p2psum: simulation not constructed yet")

// guardf wraps fmt.Errorf so api files share one error style.
func guardf(format string, args ...any) error { return fmt.Errorf(format, args...) }
