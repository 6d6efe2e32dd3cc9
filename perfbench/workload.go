package main

import (
	"fmt"
	"time"

	"zipg"
	"zipg/internal/cluster"
	"zipg/internal/gen"
	"zipg/internal/graphapi"
	"zipg/internal/workloads"
)

// dataBytes sizes both datasets (gen.StandardSpecs' base): ~8 MiB raw,
// twice a 4 MiB L2, so reads leave the cache.
const dataBytes = 8 << 20

// system is one running instance of the program under test.
type system struct {
	// stores holds one store handle per client.
	stores []graphapi.Store
	// numServers is the cluster size, 0 for an in-process graph.
	numServers int
	// settle stops background work, compacts once synchronously and
	// returns the accounted compressed footprint and the raw size.
	settle func() (footprint, raw int64, err error)
	// close releases the system.
	close func()
}

// workload is one benchmark configuration: a dataset, a Table 2 mix and
// the system that serves it.
type workload struct {
	name  string
	graph string // a gen.StandardSpecs dataset name
	mix   workloads.Frequencies
	skew  float64 // Zipf exponent of node access; 0 is uniform
	// omit lists op kinds dropped from the generated mix because a known
	// program defect makes their answers wrong; NOTES.md has each one.
	omit []workloads.OpKind
	// Exactly one of local and cluster is set: the options of one
	// in-process graph, or the layout of a loopback cluster.
	local   *zipg.Options
	cluster *cluster.LaunchConfig
}

var allWorkloads = []*workload{
	{
		name:  "tao-local",
		graph: "orkut",
		mix:   workloads.TAOMix,
		local: &zipg.Options{NumShards: 4, SamplingRate: 32},
	},
	{
		name:  "linkbench-local",
		graph: "lb-small",
		mix:   workloads.LinkBenchMix,
		skew:  1.4,
		omit:  []workloads.OpKind{workloads.OpObjDel},
		// A log rollover every 512 KiB written, and an online compaction
		// every 10 s: on a timer, not after a count of rollovers, so that
		// every measured phase of a whole number of intervals holds the
		// same compaction work whatever its throughput.
		local: &zipg.Options{
			NumShards:            4,
			SamplingRate:         32,
			BackgroundCompaction: true,
			LogStoreThreshold:    512 << 10,
			CompactInterval:      10 * time.Second,
		},
	},
	{
		name:    "tao-cluster3",
		graph:   "orkut",
		mix:     workloads.TAOMix,
		omit:    writeKinds,
		cluster: &cluster.LaunchConfig{NumServers: 3, ShardsPerServer: 1, SamplingRate: 32},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// generate builds the workload's graph. It does not depend on the
// benchmark seed, which drives only the ops.
func (w *workload) generate() (*gen.Dataset, error) {
	for _, spec := range gen.StandardSpecs(dataBytes) {
		if spec.Name == w.graph {
			return spec.Generate(), nil
		}
	}
	return nil, fmt.Errorf("unknown dataset %q", w.graph)
}

// build starts the workload's system on data.
func (w *workload) build(data zipg.GraphData) (*system, error) {
	if w.cluster != nil {
		return clusterSystem(*w.cluster, data)
	}
	return localSystem(*w.local, data)
}

// localSystem serves the graph from one in-process zipg.Graph shared by
// every client.
func localSystem(opts zipg.Options, data zipg.GraphData) (*system, error) {
	g, err := zipg.Compress(data, opts)
	if err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	stores := make([]graphapi.Store, numClients)
	for i := range stores {
		stores[i] = g
	}
	return &system{
		stores: stores,
		settle: func() (int64, int64, error) {
			g.Close()
			err := g.Compact()
			return g.CompressedFootprint(), g.RawSize(), err
		},
		close: g.Close,
	}, nil
}

// clusterSystem serves the graph from in-process servers on loopback
// TCP, one cluster.Client per client. The system is up once every
// client has had a reply from every server.
func clusterSystem(cfg cluster.LaunchConfig, data zipg.GraphData) (*system, error) {
	nodeSchema, edgeSchema, err := zipg.DeriveSchemas(data)
	if err != nil {
		return nil, err
	}
	c, err := cluster.Launch(data.Nodes, data.Edges, nodeSchema, edgeSchema, cfg)
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	var clients []*cluster.Client
	sys := &system{
		numServers: cfg.NumServers,
		settle: func() (footprint, raw int64, err error) {
			for _, srv := range c.Servers {
				st := srv.Store()
				st.Close()
				if err := st.Compact(); err != nil {
					return 0, 0, err
				}
				footprint += st.CompressedFootprint()
				raw += st.RawSize()
			}
			return footprint, raw, nil
		},
		close: func() {
			for _, cl := range clients {
				cl.Close()
			}
			c.Close()
		},
	}
	// One node owned by each server, to see every server answer.
	probe := make([]graphapi.NodeID, cfg.NumServers)
	found := 0
	for i := range probe {
		probe[i] = -1
	}
	for _, n := range data.Nodes {
		if o := cluster.OwnerOf(n.ID, cfg.NumServers); probe[o] < 0 {
			probe[o] = n.ID
			found++
		}
	}
	if found < cfg.NumServers {
		sys.close()
		return nil, fmt.Errorf("launch: some server owns no node")
	}
	for i := 0; i < numClients; i++ {
		cl, err := c.Client()
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("connect: %w", err)
		}
		clients = append(clients, cl)
		for sid, id := range probe {
			if _, ok := cl.GetNodeProperty(id, nil); !ok {
				sys.close()
				return nil, fmt.Errorf("connect: server %d does not serve node %d", sid, id)
			}
		}
		sys.stores = append(sys.stores, cl)
	}
	return sys, nil
}
