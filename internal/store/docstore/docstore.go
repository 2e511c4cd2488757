// Package docstore implements the document-oriented store DataBlinder's
// cloud side keeps encrypted documents in. The original system used MongoDB
// or Elasticsearch; the middleware only ever needs put/get/delete/scan by
// document identifier on opaque (encrypted) blobs within named collections,
// which this package provides as a thin layer over a kvstore: one hash per
// collection, the document id as the field, the blob as the value. The
// kvstore's write-ahead log is therefore the documents' only on-disk
// format, and a crash loses at most its configured fsync window.
//
// All operations are safe for concurrent use.
package docstore

import (
	"errors"
	"fmt"

	"datablinder/internal/store/kvstore"
)

// Common errors.
var (
	ErrClosed   = kvstore.ErrClosed
	ErrNotFound = errors.New("docstore: document not found")
	ErrExists   = errors.New("docstore: document already exists")
)

// Record is a stored document: an identifier plus an opaque payload. The
// payload is typically a whole-document AEAD ciphertext; the store never
// interprets it.
type Record struct {
	ID   string `json:"id"`
	Blob []byte `json:"blob"`
}

// Store is a multi-collection document store kept in a kvstore.
type Store struct {
	kv *kvstore.Store
}

// New returns an empty in-memory store with no persistence.
func New() *Store { return Over(kvstore.New()) }

// Over returns a store that keeps its documents in kv, which it owns from
// then on: Close closes kv. Open kv with kvstore.Open to persist them.
func Over(kv *kvstore.Store) *Store { return &Store{kv: kv} }

// Insert stores blob under id in collection, failing if id already exists.
func (s *Store) Insert(collection, id string, blob []byte) error {
	ok, err := s.kv.HSetNX([]byte(collection), []byte(id), blob)
	if err == nil && !ok {
		return fmt.Errorf("%w: %s/%s", ErrExists, collection, id)
	}
	return err
}

// Put stores blob under id in collection, overwriting any existing value.
func (s *Store) Put(collection, id string, blob []byte) error {
	return s.kv.HSet([]byte(collection), []byte(id), blob)
}

// Get returns the blob stored under id in collection.
func (s *Store) Get(collection, id string) ([]byte, error) {
	blob, ok, err := s.kv.HGet([]byte(collection), []byte(id))
	if err == nil && !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, collection, id)
	}
	return blob, err
}

// GetMany returns the records for the given ids, skipping missing ones.
// The result preserves the order of ids.
func (s *Store) GetMany(collection string, ids []string) ([]Record, error) {
	blobs, err := s.kv.HMGet([]byte(collection), ids)
	if err != nil {
		return nil, err
	}
	out := make([]Record, 0, len(ids))
	for i, blob := range blobs {
		if blob != nil {
			out = append(out, Record{ID: ids[i], Blob: blob})
		}
	}
	return out, nil
}

// Delete removes id from collection. Deleting a missing document returns
// ErrNotFound.
func (s *Store) Delete(collection, id string) error {
	ok, err := s.kv.HRemove([]byte(collection), []byte(id))
	if err == nil && !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, collection, id)
	}
	return err
}

// Count returns the number of documents in collection.
func (s *Store) Count(collection string) (int, error) {
	return s.kv.HLen([]byte(collection))
}

// Scan returns up to limit records from collection with id > after, in id
// order. A limit <= 0 means no limit. It supports administrative tooling;
// a document deleted while the page is read is left out of it.
func (s *Store) Scan(collection, after string, limit int) ([]Record, error) {
	ids, err := s.kv.HFields([]byte(collection))
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, id := range ids {
		if string(id) <= after {
			continue
		}
		if limit > 0 && len(out) == limit {
			break
		}
		blob, ok, err := s.kv.HGet([]byte(collection), id)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, Record{ID: string(id), Blob: blob})
		}
	}
	return out, nil
}

// Collections returns the collection names, sorted.
func (s *Store) Collections() ([]string, error) {
	keys, err := s.kv.HKeys(nil)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = string(k)
	}
	return names, nil
}

// Close writes a final snapshot, so that the next open recovers from it
// instead of replaying the log, and closes the store. Close is idempotent.
func (s *Store) Close() error {
	if err := s.kv.Compact(); err != nil && !errors.Is(err, kvstore.ErrClosed) {
		s.kv.Close()
		return fmt.Errorf("docstore: final snapshot: %w", err)
	}
	return s.kv.Close()
}
