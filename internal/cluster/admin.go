package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"pimtree/internal/metrics"
)

// Admin surface: the route command mounts these on the serving layer's
// admin listener (server.Options.AdminMux / ExtraProm), so the router
// exposes /healthz, /stats, /metrics, and /tuning like any node, plus the
// cluster-specific membership endpoints and metric families below.

// memberJSON is one node in the GET /cluster response.
type memberJSON struct {
	ID          string `json:"id"`
	Addr        string `json:"addr"`
	Pos         int    `json:"pos"`
	Alive       bool   `json:"alive"`
	RangeLo     uint32 `json:"range_lo"`
	RangeHi     uint32 `json:"range_hi"`
	Applied     uint64 `json:"applied"`
	EvictWM     uint64 `json:"evict_watermark"`
	Resident    uint64 `json:"resident"`
	Outstanding int    `json:"outstanding_probes"`
	Inserts     uint64 `json:"inserts"`
	Probes      uint64 `json:"probes"`
}

// clusterJSON is the GET /cluster response.
type clusterJSON struct {
	Epoch         int64        `json:"epoch"`
	Policy        string       `json:"degrade_policy"`
	Frontier      uint64       `json:"global_frontier"`
	FrontierKnown bool         `json:"global_frontier_known"`
	Sheds         uint64       `json:"sheds"`
	Handoffs      uint64       `json:"handoffs"`
	HandoffTuples uint64       `json:"handoff_tuples"`
	Nodes         []memberJSON `json:"nodes"`
}

// snapshot builds the membership view shared by /cluster and the metric
// families.
func (fe *Frontend) snapshot() clusterJSON {
	fe.setMu.RLock()
	defer fe.setMu.RUnlock()
	out := clusterJSON{
		Epoch:         fe.epoch.Load(),
		Policy:        fe.cfg.Degrade.String(),
		Sheds:         fe.sheds.Load(),
		Handoffs:      fe.handoffs.Load(),
		HandoffTuples: fe.handoffTuples.Load(),
	}
	first := true
	for pos, nd := range fe.nodes {
		lo, hi := fe.part.Range(pos)
		st := nd.snapshotStatus()
		depth, _ := nd.outstandingLen()
		out.Nodes = append(out.Nodes, memberJSON{
			ID: nd.id, Addr: nd.addr, Pos: pos, Alive: nd.alive.Load(),
			RangeLo: lo, RangeHi: hi,
			Applied: st.Applied, EvictWM: st.EvictWM, Resident: st.Resident,
			Outstanding: depth,
			Inserts:     nd.inserts.Load(), Probes: nd.probes.Load(),
		})
		if nd.alive.Load() {
			if first || st.EvictWM < out.Frontier {
				out.Frontier = st.EvictWM
			}
			first = false
		}
	}
	out.FrontierKnown = !first
	return out
}

// AdminMux mounts the cluster admin endpoints; pass it as
// server.Options.AdminMux.
func (fe *Frontend) AdminMux(mux *http.ServeMux) {
	mux.HandleFunc("/cluster", fe.handleCluster)
	mux.HandleFunc("/cluster/join", fe.handleJoin)
	mux.HandleFunc("/cluster/leave", fe.handleLeave)
}

// handleCluster serves GET /cluster: the membership map, per-node health
// and load, and the global watermark frontier.
func (fe *Frontend) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(fe.snapshot())
}

// membershipReq is the POST body for /cluster/join and /cluster/leave.
type membershipReq struct {
	// Addr is the node's protocol address (join; leave also accepts it).
	Addr string `json:"addr"`
	// Node is a node ID (leave).
	Node string `json:"node"`
}

// handleJoin serves POST /cluster/join {"addr": "host:port"}: dial the
// node, hand it its key-range slice, install the new epoch.
func (fe *Frontend) handleJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req membershipReq
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil || req.Addr == "" {
		http.Error(w, "body must be {\"addr\": \"host:port\"}", http.StatusBadRequest)
		return
	}
	if err := fe.AddNode(req.Addr); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "joined %s; epoch %d\n", req.Addr, fe.epoch.Load())
}

// handleLeave serves POST /cluster/leave {"node": id} (or {"addr": ...}):
// drain the node's key range to the survivors and drop it from the map.
func (fe *Frontend) handleLeave(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req membershipReq
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, "body must be {\"node\": id} or {\"addr\": \"host:port\"}", http.StatusBadRequest)
		return
	}
	ref := req.Node
	if ref == "" {
		ref = req.Addr
	}
	if ref == "" {
		http.Error(w, "body must be {\"node\": id} or {\"addr\": \"host:port\"}", http.StatusBadRequest)
		return
	}
	if err := fe.RemoveNode(ref); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "removed %s; epoch %d\n", ref, fe.epoch.Load())
}

// PromFamilies returns the cluster-tier metric families; pass it as
// server.Options.ExtraProm so they append to the node-level /metrics page.
func (fe *Frontend) PromFamilies() []metrics.PromFamily {
	cs := fe.snapshot()
	alive := 0
	nodeAlive := metrics.PromFamily{Name: "pimtree_cluster_node_alive", Help: "1 while the node's member session is healthy.", Type: "gauge"}
	nodeRes := metrics.PromFamily{Name: "pimtree_cluster_node_resident", Help: "Window tuples resident on the node, per its last heartbeat.", Type: "gauge"}
	nodeOut := metrics.PromFamily{Name: "pimtree_cluster_node_outstanding_probes", Help: "Probe ops shipped to the node and not yet answered.", Type: "gauge"}
	nodeApplied := metrics.PromFamily{Name: "pimtree_cluster_node_applied_total", Help: "Ops the node has applied, per its last heartbeat.", Type: "counter"}
	nodeWM := metrics.PromFamily{Name: "pimtree_cluster_node_evict_watermark", Help: "The node's applied eviction watermark (global sequence, or event time in timed mode).", Type: "gauge"}
	nodeLo := metrics.PromFamily{Name: "pimtree_cluster_node_range_lo", Help: "Inclusive lower bound of the node's key range in the current epoch.", Type: "gauge"}
	for _, nd := range cs.Nodes {
		lbl := [][2]string{{"node", nd.ID}, {"pos", strconv.Itoa(nd.Pos)}}
		v := 0.0
		if nd.Alive {
			v = 1
			alive++
		}
		nodeAlive.Samples = append(nodeAlive.Samples, metrics.PromSample{Labels: lbl, Value: v})
		nodeRes.Samples = append(nodeRes.Samples, metrics.PromSample{Labels: lbl, Value: float64(nd.Resident)})
		nodeOut.Samples = append(nodeOut.Samples, metrics.PromSample{Labels: lbl, Value: float64(nd.Outstanding)})
		nodeApplied.Samples = append(nodeApplied.Samples, metrics.PromSample{Labels: lbl, Value: float64(nd.Applied)})
		nodeWM.Samples = append(nodeWM.Samples, metrics.PromSample{Labels: lbl, Value: float64(nd.EvictWM)})
		nodeLo.Samples = append(nodeLo.Samples, metrics.PromSample{Labels: lbl, Value: float64(nd.RangeLo)})
	}
	fams := []metrics.PromFamily{
		metrics.Gauge("pimtree_cluster_nodes", "Member nodes in the current epoch.", float64(len(cs.Nodes))),
		metrics.Gauge("pimtree_cluster_nodes_alive", "Member nodes currently healthy.", float64(alive)),
		metrics.Counter("pimtree_cluster_epoch", "Membership epochs installed (joins and leaves).", float64(cs.Epoch)),
		metrics.Counter("pimtree_cluster_sheds_total", "Ops shed around down nodes (shed policy, plus force-completed probes on node death).", float64(cs.Sheds)),
		metrics.Counter("pimtree_cluster_handoffs_total", "Completed imports of window tuples into a gaining node.", float64(cs.Handoffs)),
		metrics.Counter("pimtree_cluster_handoff_tuples_total", "Live window tuples delivered to their new owners by handoffs.", float64(cs.HandoffTuples)),
	}
	if cs.FrontierKnown {
		fams = append(fams, metrics.Gauge("pimtree_cluster_frontier", "Global eviction frontier: the minimum watermark any live node has applied.", float64(cs.Frontier)))
	}
	return append(fams, nodeAlive, nodeRes, nodeOut, nodeApplied, nodeWM, nodeLo)
}
