// Package cell is what the per-field tactics (DET, OPE, ORE, RND, Paillier)
// share: the cell — one document's ciphertext of one field — with its wire
// codec and its write, the range-query arguments of the two order tactics,
// and the cloud column that keeps one cell per document.
package cell

import (
	"context"

	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/transport"
	"datablinder/internal/wirefmt"
)

// Args is the payload of every per-field index write: document DocID's
// ciphertext CT of one field. A column remove carries an empty CT, because
// a column finds a cell by document id alone.
type Args struct {
	Schema string
	Field  string
	CT     []byte
	DocID  string
}

var codec = transport.WriteCodec(
	func(b []byte, a *Args) []byte {
		b = wirefmt.AppendString(b, a.Schema)
		b = wirefmt.AppendString(b, a.Field)
		b = wirefmt.AppendBytes(b, a.CT)
		return wirefmt.AppendString(b, a.DocID)
	},
	func(r *wirefmt.Reader, a *Args) {
		a.Schema = r.String()
		a.Field = r.String()
		a.CT = r.Bytes()
		a.DocID = r.String()
	},
)

// Register registers the cell codec under each of service's methods. The
// codec has no reply, so the gateway's coalescer queues these writes.
func Register(service string, methods ...string) {
	for _, m := range methods {
		transport.RegisterCodec(service, m, codec)
	}
}

// Writer is how a per-field tactic writes its cells.
type Writer struct {
	Service string
	// Put is the insert method; a delete calls "remove".
	Put string
	// Seal encrypts one field value of document docID.
	Seal func(field, docID string, value any) ([]byte, error)
	// Route places one cell on a shard; ct is nil on a column remove.
	Route func(field, docID string, ct []byte) string
	// Column marks a cloud index that finds a cell by document id, so a
	// remove needs no ciphertext. Otherwise the index is keyed by
	// ciphertext and a remove re-encrypts the old value to name its cell.
	Column bool
}

// Prepare appends one cell write per field of a document to ws (the write
// half of spi.Tactic).
func (w Writer) Prepare(ws *spi.WriteSet, schema string, op model.Op, docID string, fields []string, values map[string]any) error {
	method := w.Put
	if op == model.OpDelete {
		method = "remove"
	}
	for _, f := range fields {
		var ct []byte
		if op != model.OpDelete || !w.Column {
			var err error
			if ct, err = w.Seal(f, docID, values[f]); err != nil {
				return err
			}
		}
		ws.Add(spi.Mutation{
			Route: w.Route(f, docID, ct), Field: f, Service: w.Service, Method: method,
			Args: Args{Schema: schema, Field: f, CT: ct, DocID: docID},
		})
	}
	return nil
}

// Range asks for the ids whose ciphertext lies between Lo and Hi. A nil
// bound is open; LoInc and HiInc make a bound inclusive.
type Range struct {
	Schema string
	Field  string
	Lo, Hi []byte
	LoInc  bool
	HiInc  bool
}

// NewRange builds a range query, encrypting each bound that is present.
func NewRange(schema, field string, lo, hi any, loInc, hiInc bool, encrypt func(field string, value any) ([]byte, error)) (Range, error) {
	q := Range{Schema: schema, Field: field, LoInc: loInc, HiInc: hiInc}
	var err error
	if lo != nil {
		if q.Lo, err = encrypt(field, lo); err != nil {
			return q, err
		}
	}
	if hi != nil {
		q.Hi, err = encrypt(field, hi)
	}
	return q, err
}

// AppendRange and ReadRange are the argument half of a range query's codec.
func AppendRange(b []byte, a *Range) []byte {
	b = wirefmt.AppendString(b, a.Schema)
	b = wirefmt.AppendString(b, a.Field)
	b = wirefmt.AppendBytes(b, a.Lo)
	b = wirefmt.AppendBytes(b, a.Hi)
	b = wirefmt.AppendBool(b, a.LoInc)
	return wirefmt.AppendBool(b, a.HiInc)
}

// ReadRange decodes what AppendRange wrote.
func ReadRange(r *wirefmt.Reader, a *Range) {
	a.Schema = r.String()
	a.Field = r.String()
	a.Lo = r.Bytes()
	a.Hi = r.Bytes()
	a.LoInc = r.Bool()
	a.HiInc = r.Bool()
}

// Column is the cloud half of a column index: one store hash per (schema,
// field), named <Prefix>/<schema>/<field>, from document id to ciphertext.
type Column struct {
	Store  *kvstore.Store
	Prefix string
}

func (c Column) key(schema, field string) []byte {
	return []byte(c.Prefix + "/" + schema + "/" + field)
}

// Handle installs service's put method, which sets a document's cell, and
// its remove, which deletes it.
func (c Column) Handle(mux *transport.Mux, service, put string) {
	transport.HandleTyped(mux, service, put, func(_ context.Context, in *Args) (any, error) {
		return nil, c.Store.HSet(c.key(in.Schema, in.Field), []byte(in.DocID), in.CT)
	})
	transport.HandleTyped(mux, service, "remove", func(_ context.Context, in *Args) (any, error) {
		return nil, c.Store.HDel(c.key(in.Schema, in.Field), []byte(in.DocID))
	})
}

// Scan returns every cell of a column in document-id order, read with one
// lock for the ids and one for the ciphertexts.
func (c Column) Scan(schema, field string) (ids []string, cts [][]byte, err error) {
	key := c.key(schema, field)
	fields, err := c.Store.HFields(key)
	if err != nil {
		return nil, nil, err
	}
	ids = make([]string, len(fields))
	for i, f := range fields {
		ids[i] = string(f)
	}
	if cts, err = c.Store.HMGet(key, ids); err != nil {
		return nil, nil, err
	}
	// A cell removed between the two reads comes back nil.
	n := 0
	for i := range ids {
		if cts[i] != nil {
			ids[n], cts[n] = ids[i], cts[i]
			n++
		}
	}
	return ids[:n], cts[:n], nil
}

// Get returns the cells of ids under one lock, nil for a document without
// one.
func (c Column) Get(schema, field string, ids []string) ([][]byte, error) {
	return c.Store.HMGet(c.key(schema, field), ids)
}
