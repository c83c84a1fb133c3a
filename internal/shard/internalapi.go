package shard

// Cluster-internal endpoints, mounted under /internal/ by the proxy:
// the peer cache protocol (GET/PUT result records), replica graph
// admission, and ring introspection. These carry no client traffic —
// peers call them directly with the internal header set — and their
// wire format is the same persisted-result record the disk tier writes
// (service.EncodeResultRecord), so a record fetched from a peer is
// exactly a record that could have been read from local disk.

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"strongdecomp/internal/service"
)

// internalCacheGet serves GET /internal/cache/{hash}/{params}: the
// locally cached result record for (graph hash, params key), or 404.
// The lookup never computes and never networks — peers probing each
// other must terminate.
func (p *proxy) internalCacheGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	paramsKey, err := hex.DecodeString(r.PathValue("params"))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("params key: %w", err))
		return
	}
	res, ok := p.svc.CachedResult(hash, string(paramsKey))
	if !ok {
		writeJSONError(w, http.StatusNotFound, fmt.Errorf("no cached result for %s", hash))
		return
	}
	data, err := service.EncodeResultRecord(hash, string(paramsKey), res)
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err)
		return
	}
	p.c.peerCacheServed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// internalCachePut serves PUT /internal/cache/{hash}/{params}: replica
// admission of a result record pushed by a peer. Admission validates
// the record before caching it and fires no cluster hooks, so
// replication cannot echo around the ring.
func (p *proxy) internalCachePut(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	paramsKey, err := hex.DecodeString(r.PathValue("params"))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("params key: %w", err))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPeerBodyBytes))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	if err := p.svc.AdmitResult(hash, string(paramsKey), data); err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// internalGraphPut serves PUT /internal/graphs/{hash}: replica
// admission of a graph snapshot pushed by a peer. The service checks the
// body in place — checksum, graph invariants, and its content hash
// against the path, so a corrupt or misdirected push cannot poison the
// store under a wrong name — and spills the same bytes.
func (p *proxy) internalGraphPut(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPeerBodyBytes))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	if err := p.svc.AdmitGraph(r.PathValue("hash"), data); err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ringView is the JSON shape of GET /internal/ring.
type ringView struct {
	Self     string   `json:"self"`
	VNodes   int      `json:"vnodes"`
	Replicas int      `json:"replicas"`
	Members  []Member `json:"members"`
	Live     []string `json:"live"`
}

// internalRing serves GET /internal/ring: the node's view of the
// cluster topology — membership, virtual-node count, and which peers it
// currently believes are alive. Peers with diverging Live sets are the
// debugging signal for routing disagreements.
func (p *proxy) internalRing(w http.ResponseWriter, r *http.Request) {
	view := ringView{
		Self:     p.c.self.ID,
		VNodes:   p.c.ring.VNodes(),
		Replicas: p.c.cfg.Replicas,
		Members:  p.c.ring.Members(),
	}
	for _, m := range view.Members {
		if p.c.alive(m.ID) {
			view.Live = append(view.Live, m.ID)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(view)
}
