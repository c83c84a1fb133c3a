package shard

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
)

// snapshotPath is where a shard's disk tier keeps a graph's snapshot.
func (sh *testShard) snapshotPath(hash string) string {
	return filepath.Join(sh.dataDir, "graphs", hash+".csr")
}

// TestClusterGraphReplicaIsOwnerSnapshot: an upload through a non-owner
// is spilled by its owner and pushed to the owner's ring successor, whose
// snapshot file is byte-identical to the owner's, and both serve the
// graph.
func TestClusterGraphReplicaIsOwnerSnapshot(t *testing.T) {
	algo, _ := registerShardStub(t)
	shards := newPersistentTestCluster(t, 3, algo)
	g := graph.ClusterGraph(4, 12, 0.5, 3)
	hash := graphio.Hash(g)
	ring := shards[0].cluster.Ring()
	owner := shardIndex(t, shards, ring.Owner(hash).ID)
	replica := shardIndex(t, shards, ring.Successors(hash, 2, nil)[1].ID)
	coord := 3 - owner - replica

	var el bytes.Buffer
	if err := graphio.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(shards[coord].srv.URL+"/v1/graphs?format=edgelist", "text/plain", &el)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	waitFor(t, "graph replica on the successor", func() bool {
		_, err := os.Stat(shards[replica].snapshotPath(hash))
		return err == nil
	})
	ownerFile, err := os.ReadFile(shards[owner].snapshotPath(hash))
	if err != nil {
		t.Fatal(err)
	}
	replicaFile, err := os.ReadFile(shards[replica].snapshotPath(hash))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ownerFile, replicaFile) {
		t.Fatal("replica snapshot differs from the owner's")
	}
	if !bytes.Equal(ownerFile, graphio.EncodeCSR(g)) {
		t.Fatal("owner snapshot is not the graph's encoding")
	}
	for _, i := range []int{owner, replica} {
		got, ok := shards[i].svc.GetGraph(hash)
		if !ok || graphio.Hash(got) != hash {
			t.Fatalf("shard %s does not serve the stored graph", shards[i].member.ID)
		}
	}
	if _, err := os.Stat(shards[coord].snapshotPath(hash)); !os.IsNotExist(err) {
		t.Fatalf("coordinator spilled a graph it neither owns nor replicates: %v", err)
	}
}

// TestInternalGraphPutRejectsBadSnapshots: a truncated, bit-flipped or
// misaddressed push answers 400, writes nothing under graphs/ and stores
// nothing; the intact push of the same graph is then admitted.
func TestInternalGraphPutRejectsBadSnapshots(t *testing.T) {
	algo, _ := registerShardStub(t)
	shards := newPersistentTestCluster(t, 2, algo)
	target, peer := shards[0], shards[1]
	g := graph.Grid(6, 7)
	hash := graphio.Hash(g)
	snap := graphio.EncodeCSR(g)
	flipped := bytes.Clone(snap)
	flipped[len(flipped)/2] ^= 0x08
	put := func(hash string, body []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, target.srv.URL+"/internal/graphs/"+hash, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(internalHeader, peer.member.ID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for name, body := range map[string][]byte{
		"truncated":   snap[:len(snap)-9],
		"bit-flipped": flipped,
		"wrong-hash":  graphio.EncodeCSR(graph.Grid(7, 6)),
	} {
		if status := put(hash, body); status != http.StatusBadRequest {
			t.Errorf("%s push: status %d, want 400", name, status)
		}
		entries, err := os.ReadDir(filepath.Join(target.dataDir, "graphs"))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("%s push left %d files under graphs/, e.g. %s", name, len(entries), entries[0].Name())
		}
		if _, ok := target.svc.GetGraph(hash); ok {
			t.Fatalf("%s push stored a graph", name)
		}
	}
	if status := put(hash, snap); status != http.StatusNoContent {
		t.Fatalf("intact push: status %d, want 204", status)
	}
	if got, ok := target.svc.GetGraph(hash); !ok || graphio.Hash(got) != hash {
		t.Fatal("intact push not stored")
	}
	if file, err := os.ReadFile(target.snapshotPath(hash)); err != nil || !bytes.Equal(file, snap) {
		t.Fatalf("intact push not spilled as sent (err %v)", err)
	}
}

// TestClusterReplicaTurnedOwnerPushesOnUpload: once the owner is down,
// its ring successor owns the graph it holds only as a replica; an upload
// of the graph there pushes the snapshot on to the next successor, so the
// graph is back on 1+Replicas shards.
func TestClusterReplicaTurnedOwnerPushesOnUpload(t *testing.T) {
	algo, _ := registerShardStub(t)
	shards := newPersistentTestCluster(t, 3, algo)
	g := graph.Grid(5, 9)
	hash := graphio.Hash(g)
	order := shards[0].cluster.Ring().Successors(hash, 3, nil)
	owner := shardIndex(t, shards, order[0].ID)
	heir := shardIndex(t, shards, order[1].ID)
	third := shardIndex(t, shards, order[2].ID)
	upload := func(at int) {
		t.Helper()
		if status, body := postJSON(t, shards[at].srv.URL+"/v1/graphs", graphio.ToDocument(g)); status != http.StatusOK {
			t.Fatalf("upload: status %d: %s", status, body)
		}
	}

	upload(owner)
	waitFor(t, "graph replica on the heir", func() bool {
		_, err := os.Stat(shards[heir].snapshotPath(hash))
		return err == nil
	})
	if _, err := os.Stat(shards[third].snapshotPath(hash)); !os.IsNotExist(err) {
		t.Fatalf("graph reached a shard beyond its replicas: %v", err)
	}

	shards[owner].srv.Close()
	for i, sh := range shards {
		if i != owner {
			sh.cluster.markDown(shards[owner].member.ID)
		}
	}
	upload(heir)
	waitFor(t, "graph pushed on by the heir", func() bool {
		_, err := os.Stat(shards[third].snapshotPath(hash))
		return err == nil
	})
	heirFile, err := os.ReadFile(shards[heir].snapshotPath(hash))
	if err != nil {
		t.Fatal(err)
	}
	thirdFile, err := os.ReadFile(shards[third].snapshotPath(hash))
	if err != nil || !bytes.Equal(heirFile, thirdFile) {
		t.Fatalf("pushed snapshot differs from the heir's (err %v)", err)
	}
}
