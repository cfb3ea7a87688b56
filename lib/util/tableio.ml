type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let normalize ncols row =
  let len = List.length row in
  if len >= ncols then row else row @ List.init (ncols - len) (fun _ -> "")

let render ?(align = Right) ~header rows =
  let ncols = List.length header in
  let rows = List.map (normalize ncols) rows in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    (header :: rows);
  let line row =
    String.concat "  " (List.mapi (fun i cell -> pad align widths.(i) cell) row)
  in
  let rule =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "\n" (line header :: rule :: List.map line rows)

let print ?align ~header rows =
  print_endline (render ?align ~header rows)

let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then begin
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else s

let csv ~header rows =
  let line row = String.concat "," (List.map csv_field row) in
  String.concat "\n" (line header :: List.map line rows)

let fmt_g x = Printf.sprintf "%.4g" x
