package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"powerbench/internal/cluster"
	"powerbench/internal/core"
	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/jobs"
	"powerbench/internal/server"
)

// EvaluateRequest is the body of POST /v1/evaluate and /v1/green500.
// Exactly one of Server (a built-in Table I name) or Spec (a full custom
// server.Spec) selects the system under test.
type EvaluateRequest struct {
	Server string       `json:"server,omitempty"`
	Spec   *server.Spec `json:"spec,omitempty"`
	Seed   float64      `json:"seed"`
	// FaultProfile optionally runs the hardened pipeline ("light"/"heavy";
	// ""/"none" is the clean path).
	FaultProfile string `json:"fault_profile,omitempty"`
	// TimeoutMS tightens the request deadline below the service ceiling.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// CompareRequest is the body of POST /v1/compare. Servers/Specs select the
// systems (at most one of the two; both empty compares all built-ins).
type CompareRequest struct {
	Servers      []string       `json:"servers,omitempty"`
	Specs        []*server.Spec `json:"specs,omitempty"`
	Seed         float64        `json:"seed"`
	FaultProfile string         `json:"fault_profile,omitempty"`
	TimeoutMS    int            `json:"timeout_ms,omitempty"`
}

// httpError carries a status code — and, for validation failures, the
// offending request field — through the decode/resolve helpers.
type httpError struct {
	status int
	msg    string
	field  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// badField is badRequest with the machine-usable field name clients need
// to pinpoint which part of their sweep or evaluate body was rejected.
func badField(field, format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...), field: field}
}

// decode parses a JSON request body strictly: bounded size, unknown fields
// rejected, trailing garbage rejected.
func (s *Server) decode(w http.ResponseWriter, req *http.Request, v any) error {
	body := http.MaxBytesReader(w, req.Body, s.cfg.maxBodyBytes())
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("malformed request body: %v", err)
	}
	if dec.More() {
		return badRequest("malformed request body: trailing data after JSON value")
	}
	return nil
}

// resolveSpec turns an EvaluateRequest's server selection into a validated
// Spec.
func resolveSpec(name string, spec *server.Spec) (*server.Spec, error) {
	switch {
	case name != "" && spec != nil:
		return nil, badField("server", "request sets both server and spec; choose one")
	case spec != nil:
		if err := spec.Validate(); err != nil {
			return nil, badField("spec", "invalid spec: %v", err)
		}
		if err := checkBuiltinName(spec, "spec.Name"); err != nil {
			return nil, err
		}
		return spec, nil
	case name != "":
		sp, err := server.ByName(name)
		if err != nil {
			return nil, &httpError{status: http.StatusNotFound, msg: err.Error(), field: "server"}
		}
		return sp, nil
	default:
		return nil, badField("server", "request must set server (built-in name) or spec (custom)")
	}
}

// checkBuiltinName rejects a custom spec that reuses a built-in server's
// name with different content. The core would score it as a server of its
// own (core.BuiltinMatch), so answering it under the borrowed name would
// mislabel the result; a spec equal to the built-in in every hashed field
// is the built-in and passes.
func checkBuiltinName(spec *server.Spec, field string) error {
	if named, same := core.BuiltinMatch(spec); named && !same {
		return badField(field, "spec reuses the built-in server name %q with different content; rename it or send the built-in unchanged", spec.Name)
	}
	return nil
}

// resolveProfile validates the request's fault profile name; an unknown
// profile is a client mistake (400 naming the field), never a 500.
func resolveProfile(name string) (*fault.Profile, error) {
	p, err := fault.Parse(name)
	if err != nil {
		return nil, badField("fault_profile", "%v", err)
	}
	return p, nil
}

// fail writes an error response, mapping httpError statuses and field
// names through.
func fail(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		writeFieldError(w, he.status, he.msg, he.field)
		return
	}
	writeError(w, http.StatusInternalServerError, err.Error())
}

func (s *Server) opts(profile *fault.Profile, rec *flight.Recorder) core.EvalOptions {
	return core.EvalOptions{Obs: s.obs, Pool: s.pool, Fault: profile, Flight: rec}
}

func (s *Server) handleEvaluate(w http.ResponseWriter, req *http.Request) {
	var er EvaluateRequest
	if err := s.decode(w, req, &er); err != nil {
		fail(w, err)
		return
	}
	spec, err := resolveSpec(er.Server, er.Spec)
	if err != nil {
		fail(w, err)
		return
	}
	profile, err := resolveProfile(er.FaultProfile)
	if err != nil {
		fail(w, err)
		return
	}
	key := "evaluate|" + core.CanonicalHash(spec, er.Seed,
		core.HashOpts{Method: "evaluate", FaultProfile: er.FaultProfile})
	s.serveComputed(w, req, "/v1/evaluate", key, profile.Active(), er.TimeoutMS, func(ctx context.Context, rec *flight.Recorder) (any, error) {
		return s.evalFn(ctx, spec, er.Seed, s.opts(profile, rec))
	})
}

func (s *Server) handleGreen500(w http.ResponseWriter, req *http.Request) {
	var er EvaluateRequest
	if err := s.decode(w, req, &er); err != nil {
		fail(w, err)
		return
	}
	spec, err := resolveSpec(er.Server, er.Spec)
	if err != nil {
		fail(w, err)
		return
	}
	profile, err := resolveProfile(er.FaultProfile)
	if err != nil {
		fail(w, err)
		return
	}
	key := "green500|" + core.CanonicalHash(spec, er.Seed,
		core.HashOpts{Method: "green500", FaultProfile: er.FaultProfile})
	s.serveComputed(w, req, "/v1/green500", key, profile.Active(), er.TimeoutMS, func(ctx context.Context, rec *flight.Recorder) (any, error) {
		return s.g500Fn(ctx, spec, er.Seed, s.opts(profile, rec))
	})
}

func (s *Server) handleCompare(w http.ResponseWriter, req *http.Request) {
	var cr CompareRequest
	if err := s.decode(w, req, &cr); err != nil {
		fail(w, err)
		return
	}
	specs, err := resolveSpecs(cr.Servers, cr.Specs)
	if err != nil {
		fail(w, err)
		return
	}
	profile, err := resolveProfile(cr.FaultProfile)
	if err != nil {
		fail(w, err)
		return
	}
	// The comparison key chains every spec's canonical hash in input
	// order — the per-server seeds (seed+i) and the output columns both
	// depend on that order.
	hashes := make([]string, len(specs))
	for i, sp := range specs {
		hashes[i] = core.CanonicalHash(sp, cr.Seed,
			core.HashOpts{Method: "compare", FaultProfile: cr.FaultProfile})
	}
	key := "compare|" + strings.Join(hashes, "+")
	s.serveComputed(w, req, "/v1/compare", key, profile.Active(), cr.TimeoutMS, func(ctx context.Context, rec *flight.Recorder) (any, error) {
		return s.cmpFn(ctx, specs, cr.Seed, s.opts(profile, rec))
	})
}

// resolveSpecs turns a CompareRequest's selection into validated Specs;
// empty selection compares every built-in server.
func resolveSpecs(names []string, specs []*server.Spec) ([]*server.Spec, error) {
	if len(names) > 0 && len(specs) > 0 {
		return nil, badField("servers", "request sets both servers and specs; choose one")
	}
	if len(specs) > 0 {
		for i, sp := range specs {
			if sp == nil {
				return nil, badField(fmt.Sprintf("specs[%d]", i), "specs contains a null entry")
			}
			if err := sp.Validate(); err != nil {
				return nil, badField(fmt.Sprintf("specs[%d]", i), "invalid spec: %v", err)
			}
			if err := checkBuiltinName(sp, fmt.Sprintf("specs[%d].Name", i)); err != nil {
				return nil, err
			}
		}
		return specs, nil
	}
	if len(names) == 0 {
		return server.All(), nil
	}
	out := make([]*server.Spec, len(names))
	for i, name := range names {
		sp, err := server.ByName(name)
		if err != nil {
			return nil, &httpError{status: http.StatusNotFound, msg: err.Error(), field: fmt.Sprintf("servers[%d]", i)}
		}
		out[i] = sp
	}
	return out, nil
}

func (s *Server) handleServers(w http.ResponseWriter, _ *http.Request) {
	body, err := marshalBody(server.All())
	if err != nil {
		fail(w, err)
		return
	}
	writeBody(w, http.StatusOK, "", body)
}

// storeOccupancy reports one bounded store's fill level in /healthz.
type storeOccupancy struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// healthResponse is the /healthz body: liveness plus the occupancy numbers
// probes and the future cluster-membership layer read from one endpoint.
type healthResponse struct {
	Status   string         `json:"status"`
	Draining bool           `json:"draining"`
	Inflight int            `json:"inflight"`
	Cache    storeOccupancy `json:"cache"`
	Traces   storeOccupancy `json:"traces"`
	// Cluster is the sharding layer's block: shard identity, ring size,
	// per-peer health states and the peer-fetch hit ratio. Present on
	// every node — a standalone daemon reports a cluster of one — so
	// probes and peers parse one stable shape.
	Cluster cluster.Health `json:"cluster"`
	// Jobs is the campaign subsystem's block: queue depth, active
	// campaigns, WAL segment count and the read-only degradation flag.
	Jobs *jobs.Health `json:"jobs,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := healthResponse{
		Status:   "ok",
		Draining: s.draining.Load(),
		Inflight: len(s.admit),
		Cache:    storeOccupancy{Entries: s.cache.Len(), Bytes: s.cache.Bytes()},
		Traces:   storeOccupancy{Entries: s.traces.Len(), Bytes: s.traces.Bytes()},
		Cluster:  s.cluster.Health(),
		Jobs:     s.jobsHealth(),
	}
	if h.Draining {
		h.Status = "draining"
	}
	if h.Jobs != nil && h.Jobs.ReadOnly {
		h.Status = "degraded"
	}
	body, err := marshalBody(h)
	if err != nil {
		fail(w, err)
		return
	}
	writeBody(w, http.StatusOK, "", body)
}
