(* Pins the baselines' cost model: simulated makespan, output signature
   and a digest of every profile counter, for every registered workload
   at scale 0.3 and scheduler seed 1.  Signature-only checks would miss a
   drift in cycles or counters; this table catches it.  Regenerate a row
   only with a DESIGN.md note explaining the cost-model change. *)

module Runner = Rfdet_harness.Runner
module Registry = Rfdet_workloads.Registry
module Profile = Rfdet_sim.Profile

let runtimes = Runner.[ Pthreads; Dthreads; Coredet ]

let profile_digest p =
  Profile.fields p
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let measure runtime (w : Rfdet_workloads.Workload.t) =
  let r = Runner.run ~scale:0.3 ~sched_seed:1L runtime w in
  (r.Runner.sim_time, r.Runner.signature, profile_digest r.Runner.profile)

(* (workload, runtime, sim_time, signature, profile digest) *)
let expected : (string * string * int * string * string) list =
  [
    ("racey", "pthreads", 65683, "259dea329ef11148d47b09a5ec7b58ea", "3acf20fc529ee23fac1870a27b50b66e");
    ("ocean", "pthreads", 75723, "f609beebf68b408fb36398ac63919a3f", "d1223537cc77e46dde7af8ed47af7083");
    ("water-ns", "pthreads", 408105, "acdf6dc09c244f36897825533168e1de", "5b3bf4ad00d1b8501f779561b347de56");
    ("water-sp", "pthreads", 353779, "8293e3942eaaf9119bc1589334bbb187", "68982f7e82c06c22fcc0876c68f260df");
    ("fft", "pthreads", 310609, "a3c41f6d0ab9d8d21479ef501e0d586a", "1b7a33f1c2ae4b84175a0b7e8c45d555");
    ("radix", "pthreads", 152899, "5ab1edf1cea4155f856fedf017fd8659", "9bc588e09189a0a841e55c81f921bdcd");
    ("lu-con", "pthreads", 103571, "e6928666fe4854ff41446c69c2589934", "c308752cef91617fff03ecf431927fd3");
    ("lu-non", "pthreads", 103571, "8bbf6044f402be55490828e49697c404", "c308752cef91617fff03ecf431927fd3");
    ("linear_regression", "pthreads", 92085, "1ab92549e9fede85b9c20bc411484e62", "5733e7970fb171d2e28427bf36a43c06");
    ("matrix_multiply", "pthreads", 59248, "a49997cd3edd0d2fad4d46bcba6c9fd6", "a65ad24842c7ad9f3e5e5bb5e4d0b1f3");
    ("pca", "pthreads", 139480, "468eac9d03283fb0478ab552d4598f94", "5625e97c692e997a0e1d64278cf4c73d");
    ("wordcount", "pthreads", 203730, "e4face3abd00a5aaa37584549c15d24f", "ca66568100bebab5e06313ba95a4b78f");
    ("string_match", "pthreads", 128051, "083f553d1fe3748847346cbb55828997", "0211dff6797fdae5e5c3d799437cc8fd");
    ("blackscholes", "pthreads", 84219, "c2b14cd5f3b234688feb6ea6807a652c", "eef50e893fae6dd40c554398c30b6cf4");
    ("swaptions", "pthreads", 60919, "b21b07d3d8e2728db773bf4c4bb366a2", "036becdbfb3f85ecd24d9502a8d2c3be");
    ("dedup", "pthreads", 249797, "160d085a2060624482db266643a10df1", "93d8d473b05eff51ee957af1c88261fb");
    ("ferret", "pthreads", 715282, "8628f59cde705040787e7bfe3ee95ad8", "e60776ad39dc517aaf007b7f5188fcb2");
    ("micro-lock", "pthreads", 58206, "f336cf636abe3c3f34af2f56508aa947", "317b93eccd0f45be9db1f6224d5ae651");
    ("micro-handoff", "pthreads", 44482, "521300611a402d69c8a0d85414726078", "08d15b8429d53b96632a82c71574afbe");
    ("micro-barrier", "pthreads", 44175, "14178fb8d84d3d1fba20a7a1ca2b3396", "c6230863b6773ce20c2969dd811390a2");
    ("micro-atomic", "pthreads", 58206, "c8c25c21826d4b3b11c893c3b933f125", "83e849ddc23639b0fbbb9a8e03c5b767");
    ("micro-rwlock", "pthreads", 58206, "485b112a2072be2ea53e86c9b1f3f842", "71bfb34b64dbdd413e4607a31803b16b");
    ("micro-sem", "pthreads", 58206, "948c81a58083f5aa64902f10677fdb57", "317b93eccd0f45be9db1f6224d5ae651");
    ("micro-steal", "pthreads", 58552, "740a8449e9fd79c429b6fdc22b1fbce4", "7ef3a2331ada4ac2bf339ee3204d6aff");
    ("prodcons", "pthreads", 77992, "0e51e5192dfccb77675f6f8e235ff3a6", "4d87bb452ca4c063c8e7a8e012fec5a4");
    ("kvserver", "pthreads", 178356, "5bb78d91e0ffbbebdc77d2df4a547566", "ad87e89aae4d04bd9cf32abc4870dd35");
    ("kvserver-rw", "pthreads", 107910, "e4a1bb1d1f41d1108d0c8b374cedf3f7", "cd0aee3c28057403f59c8233cf723874");
    ("racey", "dthreads", 73078, "5a93b18e4ba7ea929e024987b2df6437", "3ee061e04e92851abb36306879bd10a4");
    ("ocean", "dthreads", 588753, "f609beebf68b408fb36398ac63919a3f", "174c8467af62f5a945c835fb0b4eb392");
    ("water-ns", "dthreads", 1204786, "acdf6dc09c244f36897825533168e1de", "d33c61af1068fe84fb563406f6ede045");
    ("water-sp", "dthreads", 1517663, "8293e3942eaaf9119bc1589334bbb187", "b7956cceac5e58c5666230edd461c12b");
    ("fft", "dthreads", 1557626, "a3c41f6d0ab9d8d21479ef501e0d586a", "205725a3f732e0f00b32484fab4b2082");
    ("radix", "dthreads", 730209, "e86ff3a61b18fbe2d03e2ebd187bc983", "7e05e0ec325357255d146b3a823ed12d");
    ("lu-con", "dthreads", 283619, "e6928666fe4854ff41446c69c2589934", "0ea45e749fed71550259becbd2c53388");
    ("lu-non", "dthreads", 319806, "8bbf6044f402be55490828e49697c404", "12b43accd3545cf2795a8121431c0767");
    ("linear_regression", "dthreads", 134973, "1ab92549e9fede85b9c20bc411484e62", "5fe7d1b4786f7b098ba49c3de44c2af2");
    ("matrix_multiply", "dthreads", 44164, "a49997cd3edd0d2fad4d46bcba6c9fd6", "534d88a96a583618e9d1253828d10db5");
    ("pca", "dthreads", 225330, "468eac9d03283fb0478ab552d4598f94", "74ab3986fcc3d47c816635db8533a2ab");
    ("wordcount", "dthreads", 172997, "e4face3abd00a5aaa37584549c15d24f", "60b913578c9c73b28c431dd623280e05");
    ("string_match", "dthreads", 213808, "083f553d1fe3748847346cbb55828997", "12def88f7a0d356d9a2027ee7bffd266");
    ("blackscholes", "dthreads", 201991, "c2b14cd5f3b234688feb6ea6807a652c", "5f9756010978ecabbb849c24c6ad3654");
    ("swaptions", "dthreads", 72758, "b21b07d3d8e2728db773bf4c4bb366a2", "c281192cc7f1d2d9bec26c8210be618f");
    ("dedup", "dthreads", 1739918, "160d085a2060624482db266643a10df1", "b4b7e26287f0f23a745c4b39efed8a51");
    ("ferret", "dthreads", 5622770, "8628f59cde705040787e7bfe3ee95ad8", "03ea021bc50aae3b9ae8b2e246b83676");
    ("micro-lock", "dthreads", 36917, "f336cf636abe3c3f34af2f56508aa947", "6edf86dccba98e0919d43d3f0a8d779b");
    ("micro-handoff", "dthreads", 26326, "521300611a402d69c8a0d85414726078", "c2389e820b9aa1ad1491a9cfc91656b0");
    ("micro-barrier", "dthreads", 14133, "14178fb8d84d3d1fba20a7a1ca2b3396", "b4aefa03a4500c8a11055c68ad065329");
    ("micro-atomic", "dthreads", 24524, "c8c25c21826d4b3b11c893c3b933f125", "590baa621edbc597a8e4e0dd42fe6c79");
    ("micro-rwlock", "dthreads", 40123, "485b112a2072be2ea53e86c9b1f3f842", "44ccd10ac8b15653ec5d1c099965cf7f");
    ("micro-sem", "dthreads", 36917, "948c81a58083f5aa64902f10677fdb57", "6edf86dccba98e0919d43d3f0a8d779b");
    ("micro-steal", "dthreads", 15712, "740a8449e9fd79c429b6fdc22b1fbce4", "483c96e40124d28fe17a261fcca8a86f");
    ("prodcons", "dthreads", 241449, "0e51e5192dfccb77675f6f8e235ff3a6", "b32c2b2d14a30ad2317613d09eec7042");
    ("kvserver", "dthreads", 1134395, "5bb78d91e0ffbbebdc77d2df4a547566", "214334e6775fb99935f1ae911d03552f");
    ("kvserver-rw", "dthreads", 1162206, "e4a1bb1d1f41d1108d0c8b374cedf3f7", "639aa4a62a583e13b96aecbf20ac3cd7");
    ("racey", "coredet", 53798, "5a93b18e4ba7ea929e024987b2df6437", "1f9346abc99390ff18e053e11b6a6ca6");
    ("ocean", "coredet", 239975, "f609beebf68b408fb36398ac63919a3f", "041ef8b195895417d8d8d75ce38e2f2c");
    ("water-ns", "coredet", 990266, "acdf6dc09c244f36897825533168e1de", "b167e3476c3452f8b1f477701669899c");
    ("water-sp", "coredet", 1008837, "8293e3942eaaf9119bc1589334bbb187", "8a5ddf570a358faad661b403cfaf3cf0");
    ("fft", "coredet", 1235066, "a3c41f6d0ab9d8d21479ef501e0d586a", "c22498ad4e111b3e513921833c3d73ae");
    ("radix", "coredet", 457358, "e86ff3a61b18fbe2d03e2ebd187bc983", "ab77017322cd6454f091c5784da33ce5");
    ("lu-con", "coredet", 158019, "e6928666fe4854ff41446c69c2589934", "0d993640a07a287c1791a0feb8ed933f");
    ("lu-non", "coredet", 163406, "8bbf6044f402be55490828e49697c404", "e0330b25070ab34619e22ae2da971a51");
    ("linear_regression", "coredet", 115693, "1ab92549e9fede85b9c20bc411484e62", "d50c0f44968b0c12aa1380a574ef8aaa");
    ("matrix_multiply", "coredet", 24884, "a49997cd3edd0d2fad4d46bcba6c9fd6", "15902b759f46a4526dd8e831b2ad1a63");
    ("pca", "coredet", 130901, "468eac9d03283fb0478ab552d4598f94", "9c8c2fb574eb3d434642bd74335a27d2");
    ("wordcount", "coredet", 115157, "e4face3abd00a5aaa37584549c15d24f", "96574224e1be8fb8ba86a5a19a42fdc1");
    ("string_match", "coredet", 194528, "083f553d1fe3748847346cbb55828997", "26cdee11eeac89cc0faaedd151265dd5");
    ("blackscholes", "coredet", 123271, "c2b14cd5f3b234688feb6ea6807a652c", "59259d4cbe36b398d22dc9765244554e");
    ("swaptions", "coredet", 41638, "b21b07d3d8e2728db773bf4c4bb366a2", "01f22ccdb90f1c2402645bfa78162180");
    ("dedup", "coredet", 842233, "160d085a2060624482db266643a10df1", "6ecba77d9a949c4cdf3a9b915072d007");
    ("ferret", "coredet", 2599696, "8628f59cde705040787e7bfe3ee95ad8", "13d11ee51365224ec3a9519c9d74cd25");
    ("micro-lock", "coredet", 17237, "f336cf636abe3c3f34af2f56508aa947", "039b78731c251c9acbc2b5a80e12d694");
    ("micro-handoff", "coredet", 16742, "521300611a402d69c8a0d85414726078", "f694e138c5ba8ea093e654273dd84da2");
    ("micro-barrier", "coredet", 7053, "14178fb8d84d3d1fba20a7a1ca2b3396", "41603f97c94b1f7ea999eab193d80b44");
    ("micro-atomic", "coredet", 14524, "c8c25c21826d4b3b11c893c3b933f125", "533fbb346b7942fcc80aec3f40042972");
    ("micro-rwlock", "coredet", 20123, "485b112a2072be2ea53e86c9b1f3f842", "de62b15fb8d83842bbd17dae1c477d77");
    ("micro-sem", "coredet", 17237, "948c81a58083f5aa64902f10677fdb57", "039b78731c251c9acbc2b5a80e12d694");
    ("micro-steal", "coredet", 15712, "740a8449e9fd79c429b6fdc22b1fbce4", "37092dd53cae8ec9e114dccd89c02883");
    ("prodcons", "coredet", 109849, "0e51e5192dfccb77675f6f8e235ff3a6", "027e175d35308f7023634a541c5b7dc3");
    ("kvserver", "coredet", 853809, "5bb78d91e0ffbbebdc77d2df4a547566", "2d262e4aa8d185772bb05dba44819101");
    ("kvserver-rw", "coredet", 872257, "e4a1bb1d1f41d1108d0c8b374cedf3f7", "761fa9bfddbd600e7b108625bec22879")
  ]

let test_pinned runtime () =
  let name = Runner.runtime_name runtime in
  List.iter
    (fun (w : Rfdet_workloads.Workload.t) ->
      let sim, signature, digest = measure runtime w in
      let got = (w.name, name, sim, signature, digest) in
      match
        List.find_opt (fun (w', r, _, _, _) -> w' = w.name && r = name) expected
      with
      | None -> Alcotest.failf "no pinned row for %s/%s" w.name name
      | Some want ->
        let show (w, r, sim, s, d) =
          Printf.sprintf "(%S, %S, %d, %S, %S)" w r sim s d
        in
        Alcotest.(check string) (w.name ^ "/" ^ name) (show want) (show got))
    Registry.all

let suites =
  [
    ( "baseline-costs",
      List.map
        (fun rt ->
          Alcotest.test_case (Runner.runtime_name rt) `Quick (test_pinned rt))
        runtimes );
  ]
