package main

// pinned holds, per experiments.ModelVersion and workload, the digest of
// every cell's simulated outcome at the default seed, in plan order. A
// deliberate ModelVersion bump regenerates the table with -pin.
var pinned = map[string]map[string][]uint64{
	"sim-v1": {
		"fig7-pagecache": {
			0x0159f8bf6d21a992, // fig7-pagecache miniMD/B/hpmmap/c1#0
			0xf1bfcb8284d09b4f, // fig7-pagecache miniMD/B/hpmmap/c2#0
			0x2a2ddf246cadaa23, // fig7-pagecache miniMD/B/hpmmap/c4#0
			0x919f938af23d1ba7, // fig7-pagecache miniMD/B/hpmmap/c8#0
			0x581a95614e06d750, // fig7-pagecache miniMD/B/thp/c1#0
			0x086790029f358c40, // fig7-pagecache miniMD/B/thp/c2#0
			0x8b77b05c40641143, // fig7-pagecache miniMD/B/thp/c4#0
			0x09a5e754728738ff, // fig7-pagecache miniMD/B/thp/c8#0
			0xd28487155e234519, // fig7-pagecache miniMD/B/hugetlbfs/c1#0
			0x89083043f56340a4, // fig7-pagecache miniMD/B/hugetlbfs/c2#0
			0x97bed3f48ce5bf82, // fig7-pagecache miniMD/B/hugetlbfs/c4#0
			0x7f65a79822f5a321, // fig7-pagecache miniMD/B/hugetlbfs/c8#0
		},
		"faultstudy-detail": {
			0x88faeef117c1ea80, // faultstudy-detail HPCCG/none/hpmmap/c8#0
			0xdaf0828788c28eb4, // faultstudy-detail HPCCG/none/thp/c8#0
			0xc5c02982c2e48b5c, // faultstudy-detail HPCCG/none/hugetlbfs/c8#0
			0x96e35e399a6d7422, // faultstudy-detail CoMD/none/hpmmap/c8#0
			0x523ad003bcf5d6ec, // faultstudy-detail CoMD/none/thp/c8#0
			0x35858967a52efa3a, // faultstudy-detail CoMD/none/hugetlbfs/c8#0
			0x87a1576a650a04e6, // faultstudy-detail miniMD/none/hpmmap/c8#0
			0x666e24283718c628, // faultstudy-detail miniMD/none/thp/c8#0
			0x79471aa07bfd9850, // faultstudy-detail miniMD/none/hugetlbfs/c8#0
			0x8be2027fd22773af, // faultstudy-detail miniFE/none/hpmmap/c8#0
			0xe07c71199443719c, // faultstudy-detail miniFE/none/thp/c8#0
			0x7165a6405ff978fa, // faultstudy-detail miniFE/none/hugetlbfs/c8#0
		},
	},
}
