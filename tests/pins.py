"""SHA-256 of every pinned `turankit` output, each written once.

Keys are the command line after `turankit`.  Each command is run with
`TURANKIT_CACHE` naming its cache directory and must exit 0.
`STDOUT_SHA256` pins its stdout bytes; `CLASS_FILE_SHA256` pins the one HGR1
class file it writes there.  `test_cli.test_pinned_output` runs every entry
through `cli.main`, and the CI console-script step through the installed
`turankit` entry point.
"""

STDOUT_SHA256 = {
    "verify --suite lemma":
        "a6f3eebb715740260ece889c06624840e09f9ac3567047adbea7ac778a45254e",
    "verify --suite claims":
        "e89eb8908bcf6bf3054ed28e5d1ad3362b0818aabd756860c9897b6456a1df9c",
    "verify --suite rows":
        "d5165e020be8ba13c8e3cad9ca0149cedfaed504fafe1c52a4a7e3b7395d1a58",
    # the finite bound 10/23 at (k, g, r) = (3, 4, 5)
    "bound --k 3 --g 4 --r 5 --n 100":
        "58794a4f023146136ddc17687c3f0d79495d0e8245b0fe24eda003412cd2150f",
    "solve --k 3 --r 5 --g 4 --eps 1/100":
        "25852c0a62759e99025c12cfc6d0543f04a3026b49ed35bf3bfd7793957dc591",
    "solve --k 2 --r 16 --g 9 --eps 1/1000":
        "39f38b474e97ff64bbf06445ce94b892e01db98994ed96bd575f993483c0d480",
    # 96/97 of the (2, 16) threshold: 14 rows, minors of up to 301 bits
    "solve --k 2 --r 16 --g 2 --eps 16/3395":
        "4530b9a2f1cab2eb5f6f094756e50033717ebe7878fad83b70a711ecf4b71975",
    "solve --k 3 --r 5 --g 4 --eps 6/5":
        "c5effa4043953fe63a75330c0f9bfb03a9c4fb864d2d3af4205c00c72953eb0c",
    "bound --k 2 --g 15 --r 16 --n 5000":
        "1927c8a18856072a9a9d1d6f7ff6ddc0547a6f3c371e7664eb858f9b388b7d7d",
    "table --k 2 --r 16 --n 3000":
        "2bd5ad48725c030f3502f06058799f40b6a470c1e020cf042c08439577346eea",
    "table --k 3 --r 9 --n 500":
        "e17573dae1bdf94c5f98688402575c2d6d0b95e8c024d9f66bb417b7b7c1dd93",
    "lower --k 3 --g 7 --r 9":
        "b440beb3d8b6544a8bbd00c761f19c9d491b7acf8399d480d758d6ea4395bec5",
    "lower --k 2 --g 15 --r 16":
        "aca43721d3d92281fc1fa47d630d5cb0a06f0fa50612c6c383869cf795bb7f3d",
    "bound --k 3 --g 4 --r 5 --n 100 --mode corrected":
        "e5e096eec68b9f85543a41b74d26cae32c753166d774d733615dd347fbd6feae",
    "table --k 3 --r 9 --n 500 --mode corrected":
        "a690989ae8e5ef5c32a60d0dd4a33497624cb4d17a3bf42ac3288dbf64acca39",
    # e^x at x = -39/2 keeps four significant digits in its 12 places
    "lower --k 2 --g 40 --r 41":
        "f20c8f8cf9f2f01372a7998745f8b740a22edc8d5c4faa4f4265247780318819",
    # the sandwich's 1499!/1499^1499 is printed past 4,300 digits
    "lower --k 2 --g 3 --r 1500":
        "4f18f8540a625cc2a3551bb4e4160dece3b11a5af06ca21eb4453ee5f3c0be82",
    # every g of a (k, r) from one partite record per size; the l = 299
    # record's block table is 150 rows of 300 counts
    "table --k 2 --r 150 --n 100000000":
        "92af9988740a7b9f232d80f610d9917ef37e4303c5be0ff5baf3ceedb46eed0b",
    "table --k 2 --r 300 --n 100000000":
        "51e1e804ed85860fa2ac1bc85a94261d15140d0dbb563f679b2fd1dfb57b0445",
    # x = -55/2 prints the last nonzero digit of e^x, x = -57/2 zeros
    "lower --k 2 --g 56 --r 57":
        "eb0637fdaa4efcc674fc8c5f519a2c57a75c39f01ba14782a0cfe9208f94c0bc",
    "lower --k 2 --g 58 --r 59":
        "62e0cd254ecd23346934aeb3036f3867a70ee9c4a144d4d8475c9cc97b1f0900",
    # x = -19998/2: the ordering needs no e^x, which prints as twelve zeros
    "lower --k 2 --g 3 --r 20000":
        "ac68c2e1ed28f0ec2a5cfa9584b75c1081b9021eef072060ca61a72fb8ed9da0",
    # 3/8 on all 2102 admissible 6-vertex classes
    "certificate":
        "0db83a97a49858eb2a0aaa202ddddf3b53e8428b862b679f979f3db5b7c89f48",
    "certificate --format text":
        "2998aa87fdb0d9a31d021f087d6ed99829549e7edd985b0c70a282376fa434b1",
}

CLASS_FILE_SHA256 = {
    "certificate":
        "dbfd8a9e29df35d774d0f6d2916a963ca91c241d368baec01806641734398624",
    "enumerate --k 2 --n 6":
        "a50bb620b54e4fad46ec38551da43bb20ad6f984725fc7eafefa2cfc7c72dc1a",
    "enumerate --k 3 --n 5":
        "a9aa5feb0c0299e2a7003a5a00ec7e047f7b07e103f5ee681f5ed3b5e0282d98",
    # (6,3) is every class the certificate's admissible set is filtered from
    # and (6,4) the first k = 4 pin, 156 classes
    "enumerate --k 3 --n 6":
        "d3b5ccc24c4fee50860ac7dc6f4bd25e9f6d89bc4835914ceba25ec5a6e93ce9",
    "enumerate --k 4 --n 6":
        "964255a24eb31ef8528bf79bbcd1cd7711f4e9cf4727f3db8165ccdc941b97fa",
    # the no-empty filter at other sizes and at k = 2
    "enumerate --k 3 --n 6 --filter no-empty-4":
        "9507208a8f3f5d02b6b0519bd89e50da21bd94f67cd5dae7b696dac854675913",
    "enumerate --k 2 --n 6 --filter no-empty-3":
        "9f01a7a157ccd7271e3513873fd2d3598dd833668db14c3a0eb9cd40b0dd6f1b",
    # the orbit minima of (8,1) read links that are 0-graphs, those of (8,7)
    # links that are 6-graphs on 7 vertices
    "enumerate --k 1 --n 8":
        "0269501961fcf9adefc12407c49ef754a311f5815fcb8fa3fda6d605a1d74b6f",
    "enumerate --k 7 --n 8":
        "2f50207e24f2bd8e3410c74df5209800860a7375488d2a9ac89e1c7ec4c74046",
}
