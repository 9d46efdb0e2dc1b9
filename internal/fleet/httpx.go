package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// MaxBodyBytes is the default request-body cap of the services' JSON
// endpoints: generous for any real scenario batch, small enough that a
// hostile or broken client cannot balloon the daemon's memory.
const MaxBodyBytes = 1 << 20

// Machine-readable error codes carried alongside the human message in
// every 4xx/5xx body of coolserved (client API and worker protocol
// alike), so clients can dispatch without parsing prose.
const (
	CodeBadJSON       = "bad_json"
	CodeBadScenario   = "bad_scenario"
	CodeTooLarge      = "body_too_large"
	CodeDraining      = "draining"
	CodeNotFound      = "not_found"
	CodeConflict      = "conflict"
	CodeUnknownWorker = "unknown_worker"
	CodeCanceled      = "canceled"
	CodeInternal      = "internal"
)

// apiError is the structured error body: the historical "error" field
// (wire-compatible with pre-fleet clients) plus a stable "code".
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// WriteError emits a structured JSON error response.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: msg, Code: code})
}

// DecodeJSON reads r's JSON body into v with the shared hardening:
// a MaxBytesReader cap (maxBytes ≤ 0 selects MaxBodyBytes), unknown
// fields rejected, trailing garbage rejected. On failure it writes the
// structured 4xx (413 for an oversized body, 400 otherwise) and
// returns false; the handler just returns.
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	if maxBytes <= 0 {
		maxBytes = MaxBodyBytes
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			WriteError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		WriteError(w, http.StatusBadRequest, CodeBadJSON, fmt.Sprintf("bad JSON body: %v", err))
		return false
	}
	if dec.More() {
		WriteError(w, http.StatusBadRequest, CodeBadJSON, "trailing data after JSON body")
		return false
	}
	return true
}
