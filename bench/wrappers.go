package main

import (
	"context"
	"crypto/sha256"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/unittest"
)

// The timing wrappers sit in the seams the program already has and
// record one span per call; they change no argument and no result. A
// traced run installs them, an untraced run never does.

// timedProvider times the provider below the dispatcher (llm.generate).
type timedProvider struct {
	inference.Provider
	tr *tracer
}

func (p *timedProvider) Generate(ctx context.Context, req inference.Request) (inference.Response, error) {
	i := p.tr.begin(lGenerate, -1, -1)
	resp, err := p.Provider.Generate(ctx, req)
	p.tr.end(i)
	p.tr.arg(i, req.Model, req.Problem.ID)
	return resp, err
}

// timedExecutor times the executor below the engine (unittest.run).
type timedExecutor struct {
	engine.Executor
	tr *tracer
}

func (e *timedExecutor) RunUnitTest(p dataset.Problem, answer string) unittest.Result {
	i := e.tr.begin(lRun, -1, -1)
	res := e.Executor.RunUnitTest(p, answer)
	e.tr.end(i)
	if i >= 0 {
		s := &e.tr.spans[i]
		s.ok, s.family = res.Passed, familyIndex(string(p.Category))
	}
	e.tr.arg(i, p.UnitTest, answer)
	return res
}

// persistentStore is what engine.WithStore and inference.WithGenStore
// need of a store; *store.Store and timedStore both have it.
type persistentStore interface {
	engine.CacheStore
	inference.GenStore
}

// timedStore times the persistent tier under both the engine and the
// dispatcher.
type timedStore struct {
	persistentStore
	tr *tracer
}

func (s *timedStore) Get(test, answer [sha256.Size]byte) (unittest.Result, bool) {
	i := s.tr.begin(lStoreGet, -1, -1)
	res, ok := s.persistentStore.Get(test, answer)
	s.tr.end(i)
	s.note(i, execContentKey(test, answer), ok)
	return res, ok
}

func (s *timedStore) Put(test, answer [sha256.Size]byte, res unittest.Result) {
	i := s.tr.begin(lStorePut, -1, -1)
	s.persistentStore.Put(test, answer, res)
	s.tr.end(i)
	s.note(i, execContentKey(test, answer), true)
}

func (s *timedStore) GetGen(key inference.Key) (inference.Response, bool) {
	i := s.tr.begin(lStoreGetGen, -1, -1)
	resp, ok := s.persistentStore.GetGen(key)
	s.tr.end(i)
	s.note(i, genContentKey(key), ok)
	return resp, ok
}

func (s *timedStore) PutGen(key inference.Key, resp inference.Response) {
	i := s.tr.begin(lStorePutGen, -1, -1)
	s.persistentStore.PutGen(key, resp)
	s.tr.end(i)
	s.note(i, genContentKey(key), true)
}

func (s *timedStore) note(i int32, key contentKey, ok bool) {
	if i >= 0 {
		sp := &s.tr.spans[i]
		sp.key, sp.ok = key, ok
	}
}
