// Package serve is the throughput layer over the role-separated API: an
// HTTP service that turns one host into a multi-tenant FHE evaluation
// endpoint. The design target is the ARK/ABC-FHE serving observation
// that the scarce resource at fleet scale is not compute but *resident
// evaluation-key memory* (a PN15 full-depth hybrid key set is ~242 MB —
// thousands of registered devices cannot all stay decoded in RAM), so
// the core subsystem is a content-addressed, ref-counted LRU key cache
// with a hard byte budget:
//
//   - sessions register an evaluation-key blob once (gated by the
//     header-only wire checks before any payload-proportional work);
//     identical blobs from different sessions share one cache entry;
//   - a blob whose size alone exceeds the budget is rejected with
//     ErrCacheAdmission (HTTP 413) from its header, unread;
//   - in-flight dispatch batches pin the decoded keys; eviction (back
//     to the disk spool) happens only at refcount zero, in LRU order,
//     and a later request transparently reloads;
//   - registered-but-idle sessions hold no pin — their keys are exactly
//     what the budget reclaims.
//
// Request flow: per-session queues coalesce same-key operations into
// one dispatch batch (one cache pin, one worker occupancy, amortized
// across however many ops accumulated), a bounded worker pool executes
// batches, and a global max-inflight bound returns 429 + Retry-After
// instead of queueing without limit. /metrics exposes per-op latency
// histograms, queue depth, and cache bytes/hits/evictions;
// /debug/pprof is mounted for live profiling. Shutdown is
// drain-then-close: stop accepting, let queued work finish, then tear
// down workers and parties.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sync"
	"time"

	abcfhe "repro"
	"repro/internal/ckks"
)

// Config sizes a Service. Zero values select the documented defaults.
type Config struct {
	// CacheBytes is the evaluation-key cache budget (default 1 GiB).
	CacheBytes int64
	// MaxInflight bounds accepted-but-unfinished requests across all
	// sessions; excess gets 429 (default 256).
	MaxInflight int
	// Workers is the number of concurrent dispatch batches (default 2;
	// each op additionally fans out across the party's lane engine).
	Workers int
	// SpoolDir holds evicted key blobs ("" = a private temp dir,
	// removed on Close).
	SpoolDir string
	// Options configure the underlying parties (lane count).
	Options []abcfhe.Option
	// Clock is injectable for tests (default time.Now).
	Clock Clock
}

// Service is the HTTP evaluation service. It implements http.Handler;
// mount it on an http.Server and call Drain+Close on the way out (see
// cmd/abc-fhe's serve subcommand for the full lifecycle).
type Service struct {
	cfg      Config
	clock    Clock
	cache    *KeyCache
	disp     *dispatcher
	m        *metrics
	mux      *http.ServeMux
	spoolDir string
	ownSpool bool

	mu       sync.Mutex
	specs    map[ckks.ParamSpec]*specServer
	sessions map[string]*session
	nextID   uint64
	draining bool
}

// New builds a Service. The returned value owns background workers and
// (optionally) a temp spool dir: always Close it.
func New(cfg Config) (*Service, error) {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 1 << 30
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	spoolDir, ownSpool := cfg.SpoolDir, false
	if spoolDir == "" {
		dir, err := os.MkdirTemp("", "abcfhe-serve-spool-")
		if err != nil {
			return nil, fmt.Errorf("serve: creating spool dir: %w", err)
		}
		spoolDir, ownSpool = dir, true
	} else if err := os.MkdirAll(spoolDir, 0o700); err != nil {
		return nil, fmt.Errorf("serve: spool dir: %w", err)
	}

	s := &Service{
		cfg:      cfg,
		clock:    clock,
		cache:    NewKeyCache(cfg.CacheBytes, clock),
		m:        newMetrics(),
		spoolDir: spoolDir,
		ownSpool: ownSpool,
		specs:    make(map[ckks.ParamSpec]*specServer),
		sessions: make(map[string]*session),
	}
	s.disp = newDispatcher(s.cache, s.m, clock, cfg.MaxInflight, cfg.Workers)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleRegister)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionInfo)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleUnregister)
	mux.HandleFunc("POST /v1/eval/{op}", s.handleEval)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s, nil
}

func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Cache exposes the key cache (load generators and tests read stats).
func (s *Service) Cache() *KeyCache { return s.cache }

// Drain stops admitting new sessions; in-flight and queued evaluation
// work keeps running so an http.Server.Shutdown can complete it.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Close tears the service down: workers, parties, and the owned spool
// dir. Call only after the HTTP server has fully shut down (no handler
// may still be enqueueing).
func (s *Service) Close() error {
	s.Drain()
	s.disp.close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range s.specs {
		sp.srv.Close()
	}
	s.specs = make(map[ckks.ParamSpec]*specServer)
	if s.ownSpool {
		return os.RemoveAll(s.spoolDir)
	}
	return nil
}

// ---------------------------------------------------------------------
// session registration
// ---------------------------------------------------------------------

// registerGatePrefix bounds how much of an upload is read before the
// header gate has pronounced on it. The evaluation-key header is
// keyHeader + geometry + 4 B per rotation step; 64 KiB covers ~16k
// steps — far past evalMaxRotations' practical range.
const registerGatePrefix = 64 << 10

// sessionResponse is the registration reply: everything a client needs
// to drive the session without re-parsing its own blob.
type sessionResponse struct {
	Session   string `json:"session"`
	BlobBytes int    `json:"blob_bytes"`
	Shared    bool   `json:"shared"` // another session already registered this blob
	Slots     int    `json:"slots"`
	MaxLevel  int    `json:"max_level"`
	Rotations []int  `json:"rotations"`
	Conjugate bool   `json:"conjugate"`
}

func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	// Header-only gate: parse spec+geometry from a bounded prefix,
	// validate, and derive the exact blob size — admission control and
	// length cross-checks all happen before the payload is read.
	prefix := make([]byte, registerGatePrefix)
	n, err := io.ReadFull(r.Body, prefix)
	if err != nil && err != io.ErrUnexpectedEOF {
		writeErr(w, fmt.Errorf("%w: reading upload: %v", abcfhe.ErrMalformedWire, err))
		return
	}
	prefix = prefix[:n]
	spec, info, err := ckks.ReadEvalKeyInfo(prefix)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", abcfhe.ErrMalformedWire, err))
		return
	}
	if err := spec.Validate(); err != nil {
		writeErr(w, fmt.Errorf("%w: %v", abcfhe.ErrMalformedWire, err))
		return
	}
	want := ckks.EvalKeyWireBytes(spec, info)
	if want <= 0 {
		writeErr(w, fmt.Errorf("%w: header implies no valid wire size", abcfhe.ErrMalformedWire))
		return
	}
	if err := s.cache.Admit(int64(want)); err != nil {
		writeErr(w, err) // 413 — and the remaining payload stays unread
		return
	}
	if r.ContentLength >= 0 && r.ContentLength != int64(want) {
		writeErr(w, fmt.Errorf("%w: Content-Length %d, header implies %d",
			abcfhe.ErrMalformedWire, r.ContentLength, want))
		return
	}
	var blob []byte
	if n >= want {
		blob = prefix[:want]
		if n > want {
			writeErr(w, fmt.Errorf("%w: %d trailing bytes after the key blob", abcfhe.ErrMalformedWire, n-want))
			return
		}
	} else {
		blob = append(prefix, make([]byte, want-n)...)
		if _, err := io.ReadFull(r.Body, blob[n:]); err != nil {
			writeErr(w, fmt.Errorf("%w: key blob truncated at %d of %d bytes", abcfhe.ErrMalformedWire, n, want))
			return
		}
	}
	var one [1]byte
	if _, err := r.Body.Read(one[:]); err != io.EOF {
		writeErr(w, fmt.Errorf("%w: trailing bytes after the key blob", abcfhe.ErrMalformedWire))
		return
	}

	sum := sha256.Sum256(blob)
	hash := hex.EncodeToString(sum[:])

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		writeErr(w, ErrDraining)
		return
	}
	sp := s.specs[spec]
	shared := s.cache.Has(hash)
	var decoded *abcfhe.EvaluationKeys
	if sp == nil {
		// First session on this parameter set: bootstrapping the Server
		// from the blob also decodes the keys — reuse that decode as the
		// cache's initial resident copy. Prime/NTT-table generation runs
		// under s.mu; registration is the cold path and stays simple.
		srv, evk, err := abcfhe.NewServerFromEvaluationKeys(blob, s.cfg.Options...)
		if err != nil {
			writeErr(w, err)
			return
		}
		sp, err = newSpecServer(srv, spec)
		if err != nil {
			srv.Close()
			writeErr(w, err)
			return
		}
		s.specs[spec] = sp
		decoded = evk
	} else if !shared {
		if decoded, err = sp.srv.ImportEvaluationKeys(blob); err != nil {
			writeErr(w, err)
			return
		}
	}

	// Spool the blob (content-addressed, so a rewrite is identical) when
	// absent — keyed on the filesystem rather than `shared` so a cache
	// entry torn down concurrently can never leave a fresh registration
	// pointing at a deleted file.
	spool := filepath.Join(s.spoolDir, hash)
	if _, err := os.Stat(spool); err != nil {
		if err := os.WriteFile(spool, blob, 0o600); err != nil {
			writeErr(w, fmt.Errorf("serve: spooling key blob: %w", err))
			return
		}
	}
	if err := s.cache.Register(hash, int64(want), spool, decoded, sp.importKeys); err != nil {
		writeErr(w, err)
		return
	}

	s.nextID++
	id := fmt.Sprintf("s%06x-%s", s.nextID, hash[:8])
	sess := &session{id: id, hash: hash, sp: sp, created: s.clock()}
	s.sessions[id] = sess
	s.m.sessionOpened()
	s.m.addTraffic(want, 0)

	writeJSON(w, http.StatusCreated, sessionResponse{
		Session:   id,
		BlobBytes: want,
		Shared:    shared,
		Slots:     sp.srv.Slots(),
		MaxLevel:  info.MaxLevel,
		Rotations: info.Steps,
		Conjugate: info.HasConj,
	})
}

func (s *Service) session(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

func (s *Service) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess := s.session(r.PathValue("id"))
	if sess == nil {
		writeErr(w, ErrUnknownSession)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session":     sess.id,
		"key_hash":    sess.hash,
		"resident":    s.cache.IsResident(sess.hash),
		"queue_depth": sess.depth(),
		"created":     sess.created.UTC().Format(time.RFC3339Nano),
	})
}

func (s *Service) handleUnregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if sess == nil {
		writeErr(w, ErrUnknownSession)
		return
	}
	sess.mu.Lock()
	sess.closed = true
	sess.mu.Unlock()
	s.cache.Unregister(sess.hash)
	s.m.sessionClosed()
	w.WriteHeader(http.StatusNoContent)
}

// ---------------------------------------------------------------------
// evaluation
// ---------------------------------------------------------------------

func (s *Service) handleEval(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sess := s.session(q.Get("session"))
	if sess == nil {
		writeErr(w, ErrUnknownSession)
		return
	}
	q.Del("session")
	op, err := LookupOp(r.PathValue("op"))
	if err != nil {
		writeErr(w, err)
		return
	}
	sp := sess.sp
	n := len(op.Inputs)
	parts, err := ReadFrames(http.MaxBytesReader(w, r.Body, int64(n)*(sp.maxPart+4)+4), n, sp.maxPart)
	if err != nil {
		writeErr(w, err)
		return
	}
	inBytes := 0
	for _, p := range parts {
		inBytes += len(p)
	}
	run, err := op.build(sp, q, parts)
	if err != nil {
		writeErr(w, err)
		return
	}

	req := &request{
		op:        op.Name,
		needsKeys: !op.keyless,
		ctx:       r.Context(),
		run:       run,
		done:      make(chan result, 1),
		enqueued:  s.clock(),
	}
	if err := s.disp.enqueue(sess, req); err != nil {
		writeErr(w, err)
		return
	}
	select {
	case res := <-req.done:
		if res.err != nil {
			writeErr(w, res.err)
			return
		}
		outBytes := 0
		for _, p := range res.parts {
			outBytes += len(p)
		}
		s.m.addTraffic(inBytes, outBytes)
		w.Header().Set("Content-Type", ContentTypeFrames)
		WriteFrames(w, res.parts...)
	case <-r.Context().Done():
		// Client gone; the worker will notice ctx.Err and skip the
		// compute. done is buffered, so nothing leaks.
	}
}

// ---------------------------------------------------------------------
// observability & plumbing
// ---------------------------------------------------------------------

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	g := gauges{sessions: len(s.sessions), specs: len(s.specs)}
	for _, sess := range s.sessions {
		g.queueDepth += int64(sess.depth())
	}
	s.mu.Unlock()
	g.inflight = s.disp.inflight.Load()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.m.writeTo(w, s.cache.Stats(), g)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	status := httpStatus(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// httpStatus maps the package's sentinels and the public API's typed
// errors onto HTTP statuses: client-malformed → 400, semantically
// impossible for this key set → 422, resource pressure → 413/429/503.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, ErrCacheAdmission):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrCachePressure), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownSession):
		return http.StatusNotFound
	case errors.Is(err, abcfhe.ErrMalformedWire),
		errors.Is(err, abcfhe.ErrInvalidCiphertext),
		errors.Is(err, abcfhe.ErrInvalidConstant),
		errors.Is(err, abcfhe.ErrBufferSize),
		errors.Is(err, abcfhe.ErrUnknownPreset):
		return http.StatusBadRequest
	case errors.Is(err, abcfhe.ErrEvaluationKeyMissing),
		errors.Is(err, abcfhe.ErrLevelOutOfRange),
		errors.Is(err, abcfhe.ErrLevelMismatch),
		errors.Is(err, abcfhe.ErrScaleMismatch),
		errors.Is(err, abcfhe.ErrInvalidSpan),
		errors.Is(err, abcfhe.ErrGadgetUnsupported):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}
